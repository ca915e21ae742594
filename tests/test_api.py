"""The public API: the README tour runs as written, and the package's
public names are the ones listed here."""

import importlib
import inspect
import os
import pkgutil
import types

import kframelab

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
README = os.path.join(ROOT, "README.md")

# The rank cut and the comparison tolerance are module constants
# (RANK_EPS, DEFAULT_TOL), and loop sizes that no caller varies are
# literals: no routine takes them as parameters.
KNOBS = {"rank_tol", "tol", "iters", "probes"}

PUBLIC_NAMES = [
    "DEFAULT_TOL",
    "DEFAULT_TOLERANCES",
    "DualityReport",
    "FIXTURE_NAMES",
    "FrameBounds",
    "FrameClassification",
    "FrameVerdict",
    "HypothesisError",
    "InfeasibleError",
    "KOperator",
    "L2Coefficients",
    "MeasureSpace",
    "PROPERTY_IDS",
    "ParsevalKFrame",
    "PropertyRecord",
    "RANK_EPS",
    "RangeInclusion",
    "RangeInclusionError",
    "ResidualOperator",
    "SampledFrame",
    "Scenario",
    "ScenarioError",
    "SpaceMismatchError",
    "SuiteReport",
    "SvdFactorization",
    "UnknownPropertyError",
    "adjoint",
    "analysis",
    "analysis_norm",
    "as_operator",
    "as_vector",
    "bochner_integrate",
    "classify",
    "complex_normal",
    "complex_normal_stack",
    "derive_seed",
    "douglas_factor",
    "emit_report",
    "field_norm",
    "fixture",
    "fixture_scenario",
    "fixture_w1",
    "fixture_w1_prime",
    "frame_bounds",
    "frame_operator",
    "frames_allclose",
    "generate_parseval_k_frame",
    "generate_random_bessel",
    "is_dual_k_bessel",
    "is_l2_independent",
    "k_lower_bound",
    "l2_inner",
    "l2_norm_sq",
    "load_scenario",
    "loewner_leq",
    "op_norm",
    "parseval_residual",
    "pinv",
    "range_inclusion",
    "rank",
    "render_text",
    "report_to_dict",
    "run_suite",
    "scenario_from_dict",
    "stream",
    "svd",
    "synthesis",
    "synthesis_kernel_basis",
    "weighted_analysis",
    "weighted_norm_sq",
    "weighted_synthesis",
]


def quick_tour() -> str:
    """The first python block under the README's "## Quick tour" heading."""
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    start = text.index("```python\n", text.index("\n## Quick tour\n")) + len("```python\n")
    return text[start : text.index("```", start)]


def test_readme_quick_tour_runs_as_its_comments_say():
    ns = {}
    exec(compile(quick_tour(), README, "exec"), ns)
    kl, frame, k, pk, q = ns["kl"], ns["frame"], ns["k"], ns["pk"], ns["q"]
    assert kl.classify(frame, k).verdict is kl.FrameVerdict.PARSEVAL_K_FRAME
    assert pk.is_unique() is False
    assert kl.is_dual_k_bessel(pk.dual, frame, k).is_dual
    assert kl.is_dual_k_bessel(q, frame, k).is_dual


def test_public_names_are_the_listed_ones():
    public = [
        name
        for name in dir(kframelab)
        if not name.startswith("_") and not isinstance(getattr(kframelab, name), types.ModuleType)
    ]
    assert sorted(public) == PUBLIC_NAMES


def _modules():
    """Every module of the package, as (name, module)."""
    for info in pkgutil.iter_modules(kframelab.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            yield info.name, importlib.import_module(f"kframelab.{info.name}")


def test_every_name_in_a_modules_all_exists():
    # The package star-imports only some modules, so a stale entry in the
    # __all__ of another (suites, scenario, report) fails nowhere else.
    missing = [
        f"{short}.{name}" for short, module in _modules() for name in getattr(module, "__all__", ()) if not hasattr(module, name)
    ]
    assert missing == []


def _routines():
    """Every function and class defined in the package's modules, public
    or not, with the methods of each class, as (qualified name, object)."""
    for short, module in _modules():
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{short}.{name}", obj
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member):
                        yield f"{short}.{name}.{attr}", member


def test_no_routine_takes_a_numerical_knob():
    found = []
    for name, obj in _routines():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):
            continue
        found += [f"{name}({p})" for p in params if p in KNOBS]
    assert found == []


def test_rank_cut_has_one_name_in_the_source():
    src = os.path.join(ROOT, "src", "kframelab")
    hits = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as handle:
                hits += [f"{name}:{i}" for i, line in enumerate(handle, 1) if "rank_tol" in line]
    assert hits == []
