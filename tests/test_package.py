"""The package's public names and its import-time BLAS thread pin."""
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import bmbodies

_MODULES = ["bmbodies"] + [
    f"bmbodies.{info.name}" for info in pkgutil.iter_modules(bmbodies.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_every_public_name_resolves(name):
    # a name deleted from a module but left in an __all__ list fails here
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


_BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_pins_blas_threads_unless_the_user_set_them(preset):
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(os.path.dirname(bmbodies.__file__))]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    if preset is not None:
        env["OMP_NUM_THREADS"] = preset
    script = (
        "import os, sys\n"
        "import bmbodies\n"
        "assert 'numpy' in sys.modules\n"
        f"print(' '.join(os.environ[v] for v in {_BLAS_VARS!r}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [preset or "1", "1", "1"]


def test_every_name_the_bench_tracer_wraps_resolves(monkeypatch):
    # bench/tracer.py wraps these names in place; a module that stops
    # importing one of them would break `bench/run.py --trace 1`
    import bmbodies.cli  # noqa: F401  (loads every module the tracer names)

    bench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
    monkeypatch.syspath_prepend(bench)
    wrapped = importlib.import_module("tracer").WRAPPED
    missing = []
    for module, attr, _, _ in wrapped:
        owner = sys.modules[module]
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert missing == []


# the package's public names before it republished its modules' __all__, less
# the body-file and net.txt parsers deleted since, and merge_curves, which
# went when a conc block began to return a tally instead of a curve
_EARLIER_NAMES = """
PigeonholeError SpectralInterval SvdResult build_projectors check_matrix hs_norm
spectral_interval spectral_norm svd BodySample ModelParams TestVector round_half_up
sample_body sample_test_vector substream Ball HullBody SignedPoints ball_body
body_to_dict body_to_text cap_body circumradius_upper inradius_lower
subset_body support_function support_many GaugeError GaugeResult
SmallBallEstimate TailCurve default_thresholds mc_large_deviation mc_quadratic_tail
mc_small_ball pilot_thresholds wilson_interval BmEstimate EventReport
OpNormResult SeparationReport bm_upper cap_projection_norms check_one_body
check_one_vector event_alpha op_norm run_separation separation_scale PairCertificate
StepFamily SymmetricBody SymmetricNet body_from_tag build_net certify_pair
enumerate_steps level_count log_profile lorentz_body lp_body net_lines
profile_cell tau_for_separation top_k_body __version__
""".split()


def test_the_package_republishes_each_public_name_from_one_module():
    owners: dict = {}
    for name in _MODULES[1:]:
        for attr in importlib.import_module(name).__all__:
            owners.setdefault(attr, []).append(name)
    # a name public in two modules would be shadowed silently by a wildcard
    assert {attr: mods for attr, mods in owners.items() if len(mods) > 1} == {}
    for attr in bmbodies.__all__:
        if attr != "__version__":
            (owner,) = owners[attr]
            assert getattr(bmbodies, attr) is getattr(sys.modules[owner], attr), attr
    assert len(set(bmbodies.__all__)) == len(bmbodies.__all__)
    assert inspect.ismodule(bmbodies.gauge)
    assert [name for name in _EARLIER_NAMES if not hasattr(bmbodies, name)] == []
