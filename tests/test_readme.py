"""README's library quick tour runs, and every value its comments state holds.

A comment on an expression line that starts with a Python literal (before
any ':') states that expression's value.  Any other comment is prose: it
must be one of PROSE below, whose check reads the names the tour binds.
"""
import ast
import importlib
import pkgutil
import re
from pathlib import Path
from unittest import mock

import farkas
from farkas import qseries
from farkas.identities import verify_id1
from oracles import gaussian

README = Path(__file__).resolve().parents[1] / "README.md"

PROSE = {
    "canonical pair, chi(2) = i": lambda ns: (
        ns["chi"].value(2) == gaussian(0, 1) and ns["chibar"] == ns["chi"].conj()
    ),
    "alpha = 1, alpha' = -i/2, beta' = (2+3i)/2": lambda ns: (
        ns["c"].alpha, ns["c"].alpha_prime, ns["c"].beta_prime
    ) == (1, gaussian(0, "-1/2"), gaussian(1, "3/2")),
    "safe-prime polynomial report": lambda ns: ns["rep"].p == 59,
}


def quick_tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1, "README holds one python block, the quick tour"
    return blocks[0]


def test_quick_tour_states_true_values():
    ns: dict = {}
    prose_seen = set()
    for line in quick_tour().splitlines():
        code, _, comment = line.partition("  # ")
        code, comment = code.strip(), comment.strip()
        if not code:
            continue
        statement = ast.parse(code).body[0]
        if comment and isinstance(statement, ast.Expr):
            want = ast.literal_eval(comment.partition(":")[0])
            assert eval(code, ns) == want, line
            continue
        exec(code, ns)
        if comment:
            assert comment in PROSE, f"no check for the comment of {line!r}"
            assert PROSE[comment](ns), line
            prose_seen.add(comment)
    assert prose_seen == set(PROSE)


def test_the_product_cutoff_is_the_code_constant():
    # the prose states the int64/FFT crossover twice; each must be the
    # constant the kernel reads
    text = " ".join(README.read_text(encoding="utf-8").split())
    cutoff = re.search(r"A product of at most (\d+) coefficients is `np.convolve`", text)
    measured = re.search(r"The (\d+) is measured", text)
    assert cutoff and measured, "README's product paragraph moved"
    assert int(cutoff[1]) == int(measured[1]) == qseries.DIRECT_PRODUCT


def test_the_sweep_tail_list_is_what_a_sweep_builds():
    # the prose lists the tails of a sweep to N: F's tails of the conv
    # sweep, one ``_full_product`` call each, must be those lengths
    text = " ".join(README.read_text(encoding="utf-8").split())
    found = re.search(
        r"a sweep to N = (\d+) builds (\d+) tails, of ([\d, ]+) and (\d+) coefficients", text
    )
    assert found, "README's tail-list sentence moved"
    stated = [int(v) for v in found[3].split(", ")] + [int(found[4])]
    qseries.convolver.cache_clear()
    with mock.patch.object(qseries, "_full_product", wraps=qseries._full_product) as spy:
        assert verify_id1(13, int(found[1])).passed
    built = [len(call.args[0][0]) for call in spy.call_args_list]
    assert built == stated and len(built) == int(found[2])


def test_every_dotted_farkas_name_resolves():
    # a backticked `farkas.m`, `m.name` or `farkas.m.name` of a farkas
    # module m must still exist: a helper renamed or deleted fails here
    # instead of leaving the prose stale
    modules = {m.name for m in pkgutil.iter_modules(farkas.__path__)}
    checked = []
    for name in re.findall(r"`((?:\w+\.)+\w+)(?:\(\))?`", README.read_text(encoding="utf-8")):
        parts = name.split(".")
        if parts[0] == "farkas":
            parts = parts[1:]
        if parts[0] not in modules:
            continue
        obj = importlib.import_module(f"farkas.{parts[0]}")
        for attr in parts[1:]:
            assert hasattr(obj, attr), f"README names `{name}`, which does not exist"
            obj = getattr(obj, attr)
        checked.append(name)
    assert "qseries.exact_sum" in checked and "farkas.identities" in checked


def test_every_private_name_the_package_cites_resolves():
    # a double-backticked ``_name`` or ``module._name`` in the package's own
    # source must still exist, in that file's module or in farkas.module:
    # a docstring that cites a deleted helper fails here
    modules = {m.name for m in pkgutil.iter_modules(farkas.__path__)}
    checked = set()
    for path in sorted(Path(farkas.__file__).parent.glob("*.py")):
        own = farkas if path.stem == "__init__" else importlib.import_module(f"farkas.{path.stem}")
        cited = re.findall(r"``(?:farkas\.)?(?:(\w+)\.)?(_[A-Za-z]\w*)(?:\(\))?``", path.read_text())
        for module, name in cited:
            if module and module not in modules:
                continue
            obj = importlib.import_module(f"farkas.{module}") if module else own
            where = f"{module}.{name}" if module else name
            assert hasattr(obj, name), f"{path.name} cites ``{where}``, which does not exist"
            checked.add((path.stem, where))
    assert {("qseries", "_full_product"), ("identities", "_check")} <= checked
