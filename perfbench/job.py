"""One benchmark job: import farkas.cli, optionally trace it, run the CLI once.

    python3 perfbench/job.py STAMP TRACE [CLI ARGS...]

STAMP is the path of a JSON file the job writes when it ends; TRACE is 0
or 1.  With no CLI arguments the job only imports the package (a set-up
probe).  The stamp holds the CLOCK_MONOTONIC instant at which farkas.cli
finished importing, the import time itself, the job's peak RSS and, when
traced, the aggregated spans.

Tracing first imports every farkas submodule (after the set-up time is
taken, so a submodule that the CLI imports lazily is still traced), then
wraps, by name, every public function and public method of every farkas
module (the value type GaussianRational excepted: its arithmetic is
the inner loop of every layer).  A span is named <module>.<function> or
<module>.<Class>.<method> and holds [calls, self_s, count].  Hot leaves are
only counted: their time stays in the calling span's self time.  A name
that a later version of the package drops is simply never wrapped.
"""
import sys
import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)
import farkas.cli  # noqa: E402

T_IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402

# counted, never timed: charged to the caller
LEAVES = {
    "foundations.is_prime",
    "foundations.kronecker",
    "foundations.discrete_log_table",
    "characters.DirichletCharacter.value",
    "characters.DirichletCharacter.t_exponent",
}
UNTRACED_CLASSES = {"foundations.GaussianRational"}


def _n(args, kwargs, index, name):
    """Argument `name`, passed by position `index` or by keyword; else 0."""
    if len(args) > index:
        return args[index]
    return kwargs.get(name, 0)


def _kernel_madds(args, kwargs):
    # F(n) and H(n) take four integer dot products of length n - 1
    return 4 * max(_n(args, kwargs, 1, "n") - 1, 0)


def _sieve_length(args, kwargs):
    return _n(args, kwargs, 1, "N")


# span name -> work units added to the span's count on each call
COUNTS = {
    "qseries.Convolver.F": _kernel_madds,
    "qseries.Convolver.H": _kernel_madds,
    "qseries.delta_int_arrays": _sieve_length,
    "qseries.sigma_prime_values": _sieve_length,
    "qseries.sigma_tilde_values": _sieve_length,
    "qseries.sigma_hat_values": _sieve_length,
}
# span name -> key whose distinct values the span records
DISTINCT = {"qseries.delta_constant": lambda args, kwargs: _n(args, kwargs, 0, "chi")}


class Tracer:
    """In-memory span aggregates; written once, when the job ends."""

    def __init__(self):
        self.stats = {}  # name -> [calls, self_s, count]
        self.seen = {}  # name -> set of distinct keys
        self._stack = [0.0]  # time spent in child spans of each open span

    def span(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        count = COUNTS.get(name)
        key = DISTINCT.get(name)
        seen = self.seen.setdefault(name, set()) if key else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count or key:
                try:
                    if count:
                        stat[2] += count(args, kwargs)
                    if key:
                        seen.add(key(args, kwargs))
                except (TypeError, ValueError, IndexError):
                    pass  # the traced signature changed: count nothing, run the job
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stack[-1] += dt

        return wrapper

    def leaf(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, name, fn):
        return (self.leaf if name in LEAVES else self.span)(name, fn)

    def install(self):
        """Wrap the package's public callables and rebind every reference."""
        for info in pkgutil.iter_modules(farkas.__path__, "farkas."):
            importlib.import_module(info.name)
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "farkas" or name.startswith("farkas.")
        }
        wrapped = {}  # id(original) -> (original, wrapper)
        for modname, mod in modules.items():
            short = modname.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isclass(obj):
                    if f"{short}.{attr}" not in UNTRACED_CLASSES:
                        self._install_methods(f"{short}.{attr}", obj)
                elif callable(obj):
                    wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        # `from .x import f` copies the reference: rebind it in every module
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])

    def _install_methods(self, prefix, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(f"{prefix}.{attr}", member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", member))

    def report(self):
        return {
            "spans": self.stats,
            "distinct": {name: len(keys) for name, keys in self.seen.items()},
        }


def peak_rss_kb():
    """VmHWM of this process image.

    getrusage's ru_maxrss would not do: exec records the spawning parent's
    peak RSS into it, and the benchmark driver holds a 16 MiB table.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def main(argv):
    stamp_path, trace, cli_args = argv[0], argv[1] == "1", argv[2:]
    stamp = {"t_imported": T_IMPORTED, "import_s": T_IMPORTED - T_START}
    tracer = Tracer() if trace else None
    code = 0
    try:
        if tracer is not None:
            tracer.install()
        if cli_args:
            code = farkas.cli.main(cli_args)
    finally:
        stamp["peak_rss_kb"] = peak_rss_kb()
        if tracer is not None:
            stamp.update(tracer.report())
        with open(stamp_path, "w", encoding="utf-8") as fh:
            json.dump(stamp, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
