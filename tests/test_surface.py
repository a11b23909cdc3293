"""The shipped configs load, the public names stay as listed, the modules import in layers, only numpy and orjson are needed, and the private names the docs mention exist."""

import ast
import importlib
import io
import json
import re
import sys
import tokenize
from pathlib import Path

import pytest

import ivadapt
from ivadapt.cli import load_config

ROOT = Path(__file__).resolve().parents[1]


def readme_config():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```json\n(.*?)```", text, flags=re.DOTALL)
    assert len(blocks) == 1
    return json.loads(blocks[0])


EXAMPLES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "examples").glob("*.json"))


def test_readme_runs_every_example():
    assert EXAMPLES
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    for name in EXAMPLES:
        study = json.loads((ROOT / name).read_text(encoding="utf-8"))["study"]
        assert f"ivadapt {study} --config {name} --out " in text


@pytest.mark.parametrize("name", ["README", *EXAMPLES])
def test_shipped_configs_load(tmp_path, name):
    path = ROOT / name
    if name == "README":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(readme_config()))
    raw = json.loads(path.read_text(encoding="utf-8"))
    config, _ = load_config(path, out=str(tmp_path / "out"), jobs=1)
    assert config.study == raw["study"]
    assert list(config.n_grid) == raw["n_grid"]
    assert config.reps == raw["reps"]


PUBLIC_NAMES = [
    "CoefficientVector", "CoverageResult",
    "DgpSpec", "EstimateReport", "EstimatorConfig", "FunctionFamilySpec", "IvSample",
    "OracleRatioResult", "OracleSummary", "RateFit",
    "__version__", "adaptive_estimate", "basis_matrix", "coverage_study",
    "deterministic_resolution_bounds", "eigenvalue_profile", "estimate_eigenvalues",
    "estimate_r_coeffs", "estimate_resolution", "estimate_sigma_sq", "frequency",
    "generate_sample", "make_test_function", "min_penalized_risk", "naive_estimator",
    "oracle_level", "oracle_ratio_study", "oracle_summary", "parseval_sq_distance",
    "penalized_criterion", "rate_fit", "restricted_oracle_level",
    "risk_naive", "risk_penalized", "sample_noise", "select_level", "select_resolution",
    "sigma_sq_profile", "synthesize", "thresholded_estimator", "true_eigenvalue",
    "truncation_remainder",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 42
    assert sorted(ivadapt.__all__) == PUBLIC_NAMES


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_imports_no_scipy_and_does_not_depend_on_it():
    sources = sorted((ROOT / "src" / "ivadapt").glob("*.py"))
    assert sources
    for path in sources:
        for module in _imported_modules(path):
            assert module.split(".")[0] != "scipy", (path.name, module)
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert not any(re.match(r"scipy\b", dep) for dep in project["dependencies"])
    assert any(re.match(r"scipy\b", dep) for dep in project["optional-dependencies"]["test"])


def test_the_package_imports_only_numpy_and_orjson_outside_the_standard_library():
    sources = sorted((ROOT / "src" / "ivadapt").glob("*.py"))
    imported = {module.split(".")[0] for path in sources for module in _imported_modules(path)}
    assert imported - sys.stdlib_module_names == {"numpy", "orjson"}
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert sorted(re.match(r"[\w-]+", dep).group() for dep in project["dependencies"]) == ["numpy", "orjson"]


#: Each module imports only modules before it in this list (the package's __init__ is exempt).
LAYERS = ["seeds", "basis", "serialize", "dgp", "estimator", "risk", "cli"]


def _relative_imports(path):
    """Modules of the package that a source file imports, function bodies included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module is not None:
                yield node.module.split(".")[0]
            else:  # from . import a, b: a name that is no module comes from __init__
                yield from (alias.name for alias in node.names if alias.name in LAYERS)


def test_each_module_imports_only_the_layers_below_it():
    sources = {p.stem: p for p in (ROOT / "src" / "ivadapt").glob("*.py") if p.stem != "__init__"}
    assert sorted(sources) == sorted(LAYERS)
    for name, path in sources.items():
        for target in _relative_imports(path):
            assert LAYERS.index(target) < LAYERS.index(name), (name, target)


def _private_names():
    """Module globals, class attributes and dataclass fields of the package whose names start with _."""
    names = {}
    for layer in LAYERS:
        module = importlib.import_module(f"ivadapt.{layer}")
        found = set(vars(module))
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                found |= set(vars(value)) | set(getattr(value, "__dataclass_fields__", ()))
        names[layer] = {name for name in found if name.startswith("_")}
    return names


def _docstrings_and_comments(path):
    source = path.read_text(encoding="utf-8")
    for node in ast.walk(ast.parse(source, filename=str(path))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            yield ast.get_docstring(node) or ""
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.string


def test_every_private_name_the_docs_mention_exists():
    # module._name in README.md and src/, and a bare _name in a src/
    # docstring or comment, must name something the package defines
    names = _private_names()
    qualified = re.compile(rf"\b({'|'.join(LAYERS)})\.(_[A-Za-z]\w*)")
    sources = sorted((ROOT / "src" / "ivadapt").glob("*.py"))
    stale = [
        (path.name, f"{layer}.{name}")
        for path in [ROOT / "README.md", *sources]
        for layer, name in qualified.findall(path.read_text(encoding="utf-8"))
        if name not in names[layer]
    ]
    defined = set().union(*names.values())
    bare = re.compile(r"(?<![\w.])_[A-Za-z]\w*")
    stale += [
        (path.name, name)
        for path in sources
        for text in _docstrings_and_comments(path)
        for name in bare.findall(text)
        if name not in defined
    ]
    assert not stale
