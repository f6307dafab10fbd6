"""Cold start: importing the CLI loads no heavy scipy subpackage, and
``scipy.special`` loads only when a command first needs it.

The package's only scipy functions are the normal and Student-t cdf, pdf
and quantile ufuncs of ``scipy.special``. ``bvm.distributions._special``
imports it on first use, since it is about half of what importing
``bvm.cli`` costs otherwise. Sweeps, ``reproduce ex-5.3`` and Monte Carlo
``validate`` never load it, and they leave ``numpy.ma`` unloaded too
(``np.unique`` imports it in numpy 2, so the package sorts and masks
instead). That holds for a compound rule's model band when the model is
certain: its band is the model's one path, with no ``np.quantile`` call,
which imports ``numpy.ma`` in numpy 2. ``frequentist`` loads ``numpy.ma`` only through
``scipy.special``, which imports it in scipy 1.17. ``scipy.stats`` alone
costs about a second to import, so a stray import of it (or of
``scipy.integrate`` or ``scipy.optimize``, which it pulls in) is caught
here. Config documents are checked by the package itself, so no command
loads ``jsonschema`` either.

Each check runs in a fresh interpreter, which prints one JSON line last.
The CLI's own imports are read from its source: it reaches the
estimators through ``config.ESTIMATORS``, never through a private engine
name.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from bvm import Normal, StudentT
from bvm.agreement import And, Interval, SoftExponential, Threshold  # noqa: F401  (FREQUENTIST_RULES names them)
from bvm.metrics import DataSummary, frequentist, reliability
from bvm.studies import builtin_configs

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.stats", "scipy.integrate", "scipy.optimize")


def fresh(code, cwd=None):
    """Run *code* in a new interpreter on this checkout; its last stdout line, parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded(*modules):
    """Code that prints which of *modules* are in ``sys.modules``."""
    return f"import json, sys; print(json.dumps({{m: m in sys.modules for m in {modules!r}}}))"


@pytest.fixture(scope="module")
def numpy_loads_ma():
    """numpy 1.x imports numpy.ma with numpy itself; numpy 2 does not."""
    return fresh("import numpy\n" + loaded("numpy.ma"))["numpy.ma"]


def test_cli_import_leaves_heavy_scipy_subpackages_unloaded():
    assert fresh("import bvm.cli\n" + loaded(*HEAVY)) == dict.fromkeys(HEAVY, False)


@pytest.mark.parametrize("module", ["bvm", "bvm.cli"])
def test_import_leaves_scipy_special_and_numpy_ma_unloaded(module, numpy_loads_ma):
    got = fresh(f"import {module}\n" + loaded("scipy.special", "numpy.ma"))
    assert got == {"scipy.special": False, "numpy.ma": numpy_loads_ma}


SCALAR_MC = {
    "model": {"distribution": {"type": "normal", "mean": 0.0, "std": 1.0}},
    "data": {"distribution": {"type": "normal", "mean": 0.3, "std": 0.5}},
    "agreement": {"type": "threshold", "fn": "abs_diff", "eps": 1.0},
    "estimator": {"method": "mc", "samples": 5000, "seed": 3},
}
POLY_MC = {
    "model": {
        "model_function": {"family": "polynomial", "powers": [0, 2]},
        "prior": {
            "type": "product",
            "components": [{"type": "normal", "mean": 1.0, "std": 0.2}, {"type": "normal", "mean": -0.5, "std": 0.1}],
        },
        "grid": {"start": 0.0, "stop": 2.0, "num": 10},
    },
    "data": {"generator": {"type": "grid_function", "name": "cos", "grid": {"start": 0.0, "stop": 2.0, "num": 10}}},
    "agreement": {"type": "gamma_epsilon", "gamma": 0.9, "eps": 0.1, "m": 5.0},
    "estimator": {"method": "mc", "samples": 2000, "seed": 0},
}


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "--config", "scalar.json"],
        ["validate", "--config", "certain_compound.json"],
        ["sweep", "poly.json", "--gamma", "0.9:1.0:0.1", "--eps", "0:0.5:0.25", "--out-prefix", "s"],
        ["reproduce", "ex-5.3"],
    ],
    ids=["validate", "validate-certain-compound", "sweep", "ex-5.3"],
)
def test_command_never_loads_scipy_special(argv, tmp_path, numpy_loads_ma):
    (tmp_path / "scalar.json").write_text(json.dumps(SCALAR_MC))
    (tmp_path / "certain_compound.json").write_text(json.dumps(builtin_configs(0)["oscillator-deterministic-compound"]))
    (tmp_path / "poly.json").write_text(json.dumps(POLY_MC))
    code = (
        "import contextlib, io, bvm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert bvm.cli.main({argv!r}) == 0\n" + loaded("scipy.special", "numpy.ma")
    )
    assert fresh(code, cwd=tmp_path) == {"scipy.special": False, "numpy.ma": numpy_loads_ma}


# The package checks config documents itself; jsonschema, and the attrs,
# referencing and rpds it imports, are test dependencies only.
JSONSCHEMA = ("jsonschema", "referencing", "attrs", "rpds")


def test_config_commands_never_load_jsonschema(tmp_path):
    (tmp_path / "scalar.json").write_text(json.dumps(SCALAR_MC))
    code = (
        "import contextlib, io, json, sys\n"
        f"def seen(): return [m for m in {JSONSCHEMA!r} if m in sys.modules]\n"
        "import bvm.cli\n"
        "out = {'import': seen()}\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert bvm.cli.main(['validate', '--config', 'scalar.json']) == 0\n"
        "    out['validate'] = seen()\n"
        "    assert bvm.cli.main(['reproduce', 'ex-5.3']) == 0\n"
        "    out['ex-5.3'] = seen()\n"
        "print(json.dumps(out))"
    )
    assert fresh(code, cwd=tmp_path) == {"import": [], "validate": [], "ex-5.3": []}


@pytest.fixture(scope="module")
def scipy_special_loads_ma():
    """scipy 1.17's ``scipy.special`` imports numpy.ma through its array-API layer."""
    return fresh("import scipy.special\n" + loaded("numpy.ma"))["numpy.ma"]


def test_sorted_unique_leaves_numpy_ma_unloaded_and_gives_np_unique_bits(numpy_loads_ma):
    cases = ([3.5, -0.0, 1.0, 3.5, 0.0, -2.0, 1.0, 1e-300, 3.5], [], [2.0])
    got = fresh(
        "import json, sys\nfrom bvm.metrics import _sorted_unique\n"
        f"out = [_sorted_unique(v).tobytes().hex() for v in {cases!r}]\n"
        "print(json.dumps([out, 'numpy.ma' in sys.modules]))"
    )
    want = [np.unique(np.array(v, dtype=float)).tobytes().hex() for v in cases]
    assert got == [want, numpy_loads_ma]


FREQUENTIST_RULES = [
    'Threshold("abs_value", 0.3)',  # exact cdf sum over the gaps between its cuts
    'And([Threshold("abs_value", 0.5), Interval("identity", -0.2, 0.9)])',
    'SoftExponential("abs_value", 0.3, 2.0)',  # panel quadrature with pinned cuts
]


def test_frequentist_loads_numpy_ma_only_through_scipy_special(scipy_special_loads_ma):
    code = (
        "import json, sys\n"
        "from bvm.agreement import And, Interval, SoftExponential, Threshold\n"
        "from bvm.metrics import DataSummary, frequentist\n"
        f"rules = [{', '.join(FREQUENTIST_RULES)}]\n"
        "p = [frequentist(0.1, DataSummary(0.05, 0.8, 12), r).p_hat.hex() for r in rules]\n"
        "print(json.dumps([p, 'numpy.ma' in sys.modules]))"
    )
    warm = [frequentist(0.1, DataSummary(0.05, 0.8, 12), eval(r)).p_hat.hex() for r in FREQUENTIST_RULES]
    assert fresh(code) == [warm, scipy_special_loads_ma]


# Each call is the first use of scipy.special in its interpreter. It must
# give the bits of the same call made here, where scipy.special is loaded,
# and match scipy.stats as the parity tests hold it to (NaN for NaN).
X = np.concatenate([[-np.inf, -0.0, np.inf, np.nan], np.linspace(-9.0, 9.0, 73)])
Q = np.concatenate([[0.0, 1e-300, 1.0, 1.2, np.nan], np.linspace(0.0, 1.0, 41)])
COLD_CALLS = [
    (Normal(0.4, 1.7), "cdf", X, stats.norm(0.4, 1.7).cdf),
    (Normal(0.4, 1.7), "quantile", Q, stats.norm(0.4, 1.7).ppf),
    (StudentT(0.4, 2.5, 1.7), "cdf", X, stats.t(2.5, 0.4, 1.7).cdf),
    (StudentT(0.4, 2.5, 1.7), "quantile", Q, stats.t(2.5, 0.4, 1.7).ppf),
    (StudentT(0.4, 2.5, 1.7), "density", X, stats.t(2.5, 0.4, 1.7).pdf),
]


@pytest.mark.parametrize("dist, method, points, ref", COLD_CALLS, ids=[f"{d!r}.{m}" for d, m, _, _ in COLD_CALLS])
def test_first_use_loads_scipy_special_and_gives_the_warm_bits(dist, method, points, ref):
    got = fresh(
        "import json, sys\nimport numpy as np\nfrom bvm import Normal, StudentT\n"
        "assert 'scipy.special' not in sys.modules\n"
        f"x = np.array([float.fromhex(h) for h in {[float(v).hex() for v in points]!r}])\n"
        f"got = {dist!r}.{method}(x)\n"
        "assert 'scipy.special' in sys.modules\n"
        "print(json.dumps(got.tobytes().hex()))"
    )
    got = bytes.fromhex(got)
    assert got == getattr(dist, method)(points).tobytes()
    assert np.array_equal(np.frombuffer(got), ref(points), equal_nan=True)


def test_first_use_by_reliability_gives_the_warm_bits():
    got = fresh(
        "import json, sys\nfrom bvm import Normal\nfrom bvm.metrics import reliability\n"
        "assert 'scipy.special' not in sys.modules\n"
        "p = [reliability(Normal(0.2, 0.7), Normal(-0.1, 0.4), eps).p_hat for eps in (0.05, 0.5, 2.0)]\n"
        "assert 'scipy.special' in sys.modules\n"
        "print(json.dumps([v.hex() for v in p]))"
    )
    warm = [reliability(Normal(0.2, 0.7), Normal(-0.1, 0.4), eps).p_hat.hex() for eps in (0.05, 0.5, 2.0)]
    assert got == warm


def test_first_use_from_several_threads_at_once():
    got = fresh(
        "import json, sys, threading\nimport numpy as np\nfrom bvm import Normal\n"
        "x = np.linspace(-9.0, 9.0, 73)\n"
        "barrier, out = threading.Barrier(4, timeout=60), {}\n"
        "def first_use(i):\n"
        "    barrier.wait()\n"
        "    out[i] = Normal(0.4, 1.7).cdf(x).tobytes().hex()\n"
        "threads = [threading.Thread(target=first_use, args=(i,)) for i in range(4)]\n"
        "assert 'scipy.special' not in sys.modules\n"
        "sys.setswitchinterval(1e-6)\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(120)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "print(json.dumps([out.get(i) for i in range(4)]))"
    )
    want = stats.norm(0.4, 1.7).cdf(np.linspace(-9.0, 9.0, 73)).tobytes().hex()
    assert got == [want] * 4


def test_cli_reaches_the_estimators_only_through_the_config_table():
    tree = ast.parse((ROOT / "src" / "bvm" / "cli.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("engine", "bvm.engine")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
    methods = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and node.value in ("mc", "grid")]
    assert methods == []
