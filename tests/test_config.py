"""Config parsing: defaults, validation messages with line numbers, overrides."""

import re
from pathlib import Path

import pytest

from embedhom import config
from embedhom.config import load_config, parse_config
from embedhom.errors import ConfigError

MINIMAL = """\
dim: 2
bounds:
  alpha: 1.0
  beta: 4.0
field:
  kind: constant
  matrix: 2.0
"""


def parse(text, **kw):
    return parse_config(text, **kw)


def test_minimal_config_defaults():
    cfg = parse(MINIMAL)
    assert cfg.name == "experiment"
    assert cfg.dim == 2
    assert cfg.methods == ["naive", "energy_min", "averaged", "self_consistent",
                           "self_consistent_scalar", "periodic_ref"]
    assert cfg.rescale == 1.0
    assert cfg.naive_exterior is None
    assert (cfg.disc.L, cfg.disc.h) == (5.0, 0.05)
    assert cfg.disc.solver == "auto"
    assert cfg.periodic_divisions == 64
    assert cfg.sweep is None
    assert (cfg.output_dir, cfg.csv_name) == ("out", "results.csv")
    field = cfg.build_field()
    assert field.kind == "constant"


def test_resolved_tree_and_hash_stability():
    a, b = parse(MINIMAL), parse(MINIMAL)
    assert a.resolved() == b.resolved()
    assert a.config_hash() == b.config_hash()
    assert len(a.config_hash()) == 16
    int(a.config_hash(), 16)    # hex
    c = parse(MINIMAL + "rescale: 2.0\n")
    assert c.config_hash() != a.config_hash()
    assert a.resolved()["discretization"]["h"] == 0.05
    assert a.resolved()["sweep"] is None
    # the schema's output for fixed inputs, pinned: a key added, dropped or
    # renamed, or a default changed, changes these hashes
    assert a.config_hash() == "cd8a1e80cbac2918"
    assert parse(RCONV_POINT).config_hash() == "f6cd2ea90bdf350b"
    assert parse(FIXED_POINTS).config_hash() == "0ed4749e6d23d847"


# the benchmark's two CLI configs (perfbench/workloads.py) at their default
# sizes: field seeds 11 and 5
RCONV_POINT = """\
name: rconv-point
dim: 2
bounds: {alpha: 1.0, beta: 4.0}
field:
  kind: checkerboard
  values: [1.0, 4.0]
  probabilities: [0.5, 0.5]
  seed: 11
method: [energy_min, periodic_ref]
rescale: 8.0
discretization: {L: 4.0, h: 0.0625}
periodic: {divisions: 64}
optimizer: {grad_tol: 0.001}
"""

FIXED_POINTS = """\
name: fixed-points
dim: 2
bounds: {alpha: 1.0, beta: 5.0}
field:
  kind: inclusions
  exterior: 1.0
  interior_values: [5.0, [[3.0, 1.0], [1.0, 2.0]]]
  interior_probabilities: [0.5, 0.5]
  r_min: 0.2
  r_max: 0.4
  seed: 5
method: all
rescale: 3.0
discretization: {L: 3.0, h: 0.05}
periodic: {divisions: 64}
"""


def test_readme_names_every_config_key():
    # every key path the schema accepts, field keys under their kind's bullet
    text = (Path(__file__).parents[1] / "README.md").read_text()
    section = text.split("### Config file", 1)[1].split("\n### ", 1)[0]
    bullets = re.split(r"\n\s*- ", section)

    def named(head, key):
        return any(b.startswith(f"`{head}`") and f"`{key}`" in b
                   for b in bullets)

    for path in config._SCHEMA:
        head, _, key = path.rpartition(".")
        assert f"`{path}`" in section or f"`{path}." in section \
            or named(head, key), path
    for kind, (_, keys) in config._FIELD_KINDS.items():
        for key in keys:
            assert named(kind, key), f"field.{key} of kind {kind}"


# ---------------------------------------------------------------------------
# validation errors carry the key path and source line
# ---------------------------------------------------------------------------


def test_small_box_rejected_with_line():
    text = MINIMAL + "discretization:\n  L: 1.0\n"
    with pytest.raises(ConfigError) as exc:
        parse(text)
    msg = str(exc.value)
    assert "discretization.L" in msg
    assert "(line 9)" in msg
    assert "unit ball must be strictly interior" in msg
    # the schema's check column: tolerances, steps, caps and sizes > 0
    for section, key in [("optimizer", "grad_tol"), ("optimizer", "initial_step"),
                         ("optimizer", "max_iters"), ("fixed_point", "tol"),
                         ("fixed_point", "max_iters"), ("bisect", "tol"),
                         ("bisect", "bracket_tol"), ("bisect", "max_iters"),
                         ("discretization", "max_vertices")]:
        with pytest.raises(ConfigError) as exc:
            parse(MINIMAL + f"{section}:\n  {key}: 0\n")
        assert f"{section}.{key} (line 9): must be positive" in str(exc.value)


def test_inverted_bounds_rejected_with_line():
    text = MINIMAL.replace("alpha: 1.0", "alpha: 5.0")
    with pytest.raises(ConfigError) as exc:
        parse(text)
    msg = str(exc.value)
    # the bounds mapping node starts where its first key sits
    assert "bounds" in msg and "(line 3)" in msg
    assert "alpha" in msg


def test_missing_required_key():
    with pytest.raises(ConfigError) as exc:
        parse(MINIMAL.replace("dim: 2\n", ""))
    assert "dim" in str(exc.value)
    assert "required key is missing" in str(exc.value)


def test_bad_probabilities():
    text = """\
dim: 2
bounds: {alpha: 1.0, beta: 4.0}
field:
  kind: checkerboard
  values: [1.0, 4.0]
  probabilities: [0.5, 0.6]
  seed: 0
"""
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert "field.probabilities" in str(exc.value)
    assert "sum to 1" in str(exc.value)


def test_unknown_method_and_duplicates():
    with pytest.raises(ConfigError) as exc:
        parse(MINIMAL + "method: fancy\n")
    assert "unknown method 'fancy'" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse(MINIMAL + "method: [naive, naive]\n")
    assert "duplicate" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse(MINIMAL + "method: []\n")
    assert "method (line 8): needs at least one method" in str(exc.value)


def test_single_method_and_explicit_list():
    assert parse(MINIMAL + "method: naive\n").methods == ["naive"]
    cfg = parse(MINIMAL + "method: [energy_min, periodic_ref]\n")
    assert cfg.methods == ["energy_min", "periodic_ref"]


def test_unknown_keys_rejected_everywhere():
    with pytest.raises(ConfigError) as exc:
        parse(MINIMAL + "disc: {}\n")
    assert "unknown key 'disc'" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse(MINIMAL + "optimizer:\n  gradtol: 1e-3\n")
    assert "optimizer.gradtol" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse(MINIMAL.replace("  matrix: 2.0\n", "  matrix: 2.0\n  seeds: 1\n"))
    assert "field.seeds" in str(exc.value)


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError) as exc:
        parse(MINIMAL + "discretization:\n  h: true\n")
    assert "discretization.h" in str(exc.value)
    assert "expected float" in str(exc.value)


def test_matrix_shape_checked():
    with pytest.raises(ConfigError) as exc:
        parse(MINIMAL.replace("matrix: 2.0", "matrix: [[1.0, 0.0]]"))
    assert "2x2" in str(exc.value)


def test_one_dim_field_requires_dim_1():
    text = """\
dim: 2
bounds: {alpha: 1.0, beta: 4.0}
field:
  kind: one_dim_piecewise
  breakpoints: [0.0]
  values: [1.0, 4.0]
"""
    with pytest.raises(ConfigError) as exc:
        parse(text)
    assert "requires dim: 1" in str(exc.value)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEPABLE = """\
dim: 2
bounds: {alpha: 1.0, beta: 4.0}
field:
  kind: checkerboard
  values: [1.0, 4.0]
  probabilities: [0.5, 0.5]
  seed: 0
"""


def test_sweep_parsing():
    cfg = parse(SWEEPABLE + "sweep:\n  parameter: R\n  values: [2, 4, 8]\n")
    assert cfg.sweep.parameter == "R"
    assert cfg.sweep.values == [2, 4, 8]


def test_sweep_validation():
    with pytest.raises(ConfigError) as exc:
        parse(SWEEPABLE + "sweep:\n  parameter: T\n  values: [1]\n")
    assert "sweep.parameter" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse(SWEEPABLE + "sweep:\n  parameter: R\n  values: [2, -1]\n")
    assert "positive" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse(SWEEPABLE + "sweep:\n  parameter: L\n  values: [1.5]\n")
    assert ">= 2" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse(SWEEPABLE + "discretization: {L: 4.0}\n"
              "sweep:\n  parameter: h\n  values: [0.5, 10.0]\n")
    msg = str(exc.value)
    assert "sweep.values.1 (line 11)" in msg and "h=10.0" in msg
    with pytest.raises(ConfigError) as exc:
        parse(SWEEPABLE + "sweep:\n  parameter: seed\n  values: [0.5]\n")
    assert "integers" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse(MINIMAL + "sweep:\n  parameter: seed\n  values: [1, 2]\n")
    assert "deterministic" in str(exc.value)
    # numerically equal points, however written, would share a report file
    for values, bad in (("[2, 2, 2.0]", 1), ("[2.0, 4, 2]", 2)):
        with pytest.raises(ConfigError) as exc:
            parse(SWEEPABLE + f"sweep:\n  parameter: R\n  values: {values}\n")
        msg = str(exc.value)
        assert f"sweep.values.{bad} (line 10)" in msg and "repeats" in msg


def test_seed_override_only_for_random_kinds():
    cfg = parse(SWEEPABLE)
    f0, f9 = cfg.build_field(seed=0), cfg.build_field(seed=9)
    assert f0.seed == 0 and f9.seed == 9
    with pytest.raises(ConfigError):
        parse(MINIMAL).build_field(seed=1)


# ---------------------------------------------------------------------------
# overrides and I/O
# ---------------------------------------------------------------------------


def test_overrides_patch_before_validation():
    cfg = parse(MINIMAL, apply_overrides=["discretization.h=0.1",
                                          "optimizer.grad_tol=1e-3",
                                          "name=patched"])
    assert cfg.disc.h == 0.1
    assert cfg.optimizer.grad_tol == 1e-3
    assert cfg.name == "patched"


def test_override_errors():
    with pytest.raises(ConfigError) as exc:
        parse(MINIMAL, apply_overrides=["discretization.h"])
    assert "key=value" in str(exc.value)
    with pytest.raises(ConfigError):
        parse(MINIMAL, apply_overrides=["bounds.alpha=9.0"])  # alpha > beta


def test_top_level_shape_errors():
    with pytest.raises(ConfigError) as exc:
        parse("- 1\n- 2\n")
    assert "mapping" in str(exc.value)
    with pytest.raises(ConfigError) as exc:
        parse("dim: [unclosed\n")
    assert "not valid YAML" in str(exc.value)
    with pytest.raises(ConfigError):
        parse("")      # missing dim


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text(MINIMAL + "name: from-file\n")
    cfg = load_config(path)
    assert cfg.name == "from-file"


def test_naive_exterior_forms():
    assert parse(MINIMAL + "naive_exterior: 2.5\n").naive_exterior == 2.5
    cfg = parse(MINIMAL + "naive_exterior: [[2.0, 0.0], [0.0, 3.0]]\n")
    assert cfg.naive_exterior == [[2.0, 0.0], [0.0, 3.0]]
    # the matrix the naive estimate would use must be admissible
    for value, message in [("5.0", "outside [1, 4]"),
                           ("[[2.0, 0.5], [0.0, 3.0]]", "not symmetric")]:
        with pytest.raises(ConfigError) as exc:
            parse(MINIMAL + f"naive_exterior: {value}\n")
        assert "naive_exterior (line 8)" in str(exc.value)
        assert message in str(exc.value)
