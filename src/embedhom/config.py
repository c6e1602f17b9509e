"""Experiment configuration: schema, validation with line references, defaults.

A config is one YAML (or JSON) document describing a field, the estimator
methods to run, discretization and iteration options, an optional sweep over
one parameter, and output paths. One table, `_SCHEMA`, states each key's
type, default and check once; it drives parsing, unknown-key rejection and
`resolved()`, the defaulted tree that `embedhom validate` prints and reports
hash. Validation errors cite the offending key path and its source line.
"""

import copy
import dataclasses
import hashlib
import json
import os
import re
import typing
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import ConfigError, EmbedHomError, GeometryError
from .estimators import METHODS, BisectOptions, FixedPointOptions, OptimizerOptions
from .fem import Discretization
from .fields import (make_checkerboard, make_constant, make_inclusions,
                     make_laminate, make_one_dim_piecewise)
from .matrices import EllipticityBounds, as_spd, check_admissible

SWEEP_PARAMETERS = ("R", "L", "h", "seed")

# YAML 1.1 reads dot-less scientific notation ("1e-8") as a string
_SCI_FLOAT = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)[eE][+-]?\d+\Z")


def _coerce_numbers(node):
    if isinstance(node, dict):
        return {k: _coerce_numbers(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_coerce_numbers(v) for v in node]
    if isinstance(node, str) and _SCI_FLOAT.match(node):
        return float(node)
    return node


def _line_map(text):
    """Map key paths (tuples) to 1-based source lines via the YAML node tree."""
    try:
        root = yaml.compose(text)
    except yaml.YAMLError:
        return {}
    lines = {}

    def walk(node, path):
        if node is None:
            return
        lines[path] = node.start_mark.line + 1
        if isinstance(node, yaml.MappingNode):
            for key, value in node.value:
                walk(value, path + (str(key.value),))
        elif isinstance(node, yaml.SequenceNode):
            for i, value in enumerate(node.value):
                walk(value, path + (i,))

    walk(root, ())
    return lines


# ---------------------------------------------------------------------------
# the schema
# ---------------------------------------------------------------------------

_REQUIRED = object()     # default of a key that must be given


@dataclass
class _Key:
    """One config key.

    types: a type or tuple of types, or a parser(chk, path, value, ctx);
    None for an option key, whose types and default are those of its
    section's dataclass field. check(value) returns an error message or
    None. attr: the ExperimentConfig attribute, for a key not kept on a
    section object.
    """

    types: object = None
    default: object = _REQUIRED
    check: object = None
    attr: str = None

    def __post_init__(self):
        if isinstance(self.types, type):
            self.types = (self.types,)


class _Section(typing.NamedTuple):
    """A section parsed into one object, kept as an ExperimentConfig attribute."""

    attr: str
    cls: type
    optional: bool = False   # absent or null: the attribute is None


def _check(ok, message):
    """A check-column entry: message (formatted with v) where ok(v) fails."""
    return lambda v: None if ok(v) else message.format(v=v)


def _one_of(choices):
    return _check(lambda v: v in choices,
                  f"must be one of {sorted(choices)}, got {{v!r}}")


_POSITIVE = _check(lambda v: v > 0, "must be positive, got {v!r}")


def _law(probs):
    """Check of a list of probabilities."""
    if not all(type(p) in (int, float) for p in probs):
        return "probabilities must be numbers"
    if abs(sum(probs) - 1.0) > 1e-12 or any(p < 0 for p in probs):
        return (f"probabilities must be nonnegative and sum to 1 within "
                f"1e-12 (sum = {sum(probs)!r})")
    return None


def _matrix(chk, path, value, ctx):
    """A scalar (meaning scalar * identity) or a dim x dim nested list."""
    dim = ctx["dim"]
    if isinstance(value, bool):
        chk.fail(path, "expected a number or matrix")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, list):
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            chk.fail(path, f"matrix entries must be numbers: {value!r}")
        if arr.shape != (dim, dim):
            chk.fail(path, f"expected a {dim}x{dim} matrix, got shape {arr.shape}")
        return arr.tolist()
    chk.fail(path, f"expected a number or {dim}x{dim} matrix, "
                   f"got {type(value).__name__}")


def _matrices(chk, path, value, ctx):
    if not isinstance(value, list) or not value:
        chk.fail(path, "required: a non-empty list of scalars or matrices")
    return [_matrix(chk, path + (i,), v, ctx) for i, v in enumerate(value)]


def _admissible_matrix(chk, path, value, ctx):
    """A _matrix whose spectrum lies within the bounds."""
    value = _matrix(chk, path, value, ctx)
    try:
        check_admissible(as_spd(value, ctx["dim"]), ctx["bounds"])
    except EmbedHomError as exc:
        chk.fail(path, str(exc))
    return value


_MATRIX = _Key(_matrix)
_VALUES = _Key(_matrices)
_LAW = _Key(list, check=_law)
_SEED = _Key(int)

# field kind -> (constructor, its keys besides kind, bounds and dim); the
# keys are the constructor's keyword names, in resolved-tree order
_FIELD_KINDS = {
    "constant": (make_constant, {"matrix": _MATRIX}),
    "checkerboard": (make_checkerboard, {
        "values": _VALUES, "probabilities": _LAW, "seed": _SEED}),
    "inclusions": (make_inclusions, {
        "exterior": _MATRIX, "interior_values": _VALUES,
        "interior_probabilities": _LAW, "r_min": _Key(float),
        "r_max": _Key(float), "jitter": _Key(bool, True), "seed": _SEED}),
    "laminate": (make_laminate, {
        "a1": _MATRIX, "a2": _MATRIX, "axis": _Key(int, 0),
        "period": _Key(float, 1.0)}),
    # the only kind fixed to dim 1; its constructor takes no dim
    "one_dim_piecewise": (make_one_dim_piecewise, {
        "breakpoints": _Key(list), "values": _VALUES}),
}
RANDOM_KINDS = tuple(k for k, (_, keys) in _FIELD_KINDS.items()
                     if "seed" in keys)


def _field_spec(chk, path, raw, ctx):
    if not isinstance(raw, dict):
        chk.fail(path, f"expected a mapping, got {type(raw).__name__}")
    kind = chk.value(path + ("kind",),
                     _Key(str, check=_one_of(tuple(_FIELD_KINDS))), ctx)
    if kind == "one_dim_piecewise" and ctx["dim"] != 1:
        chk.fail(path + ("kind",), "one_dim_piecewise requires dim: 1")
    keys = _FIELD_KINDS[kind][1]
    chk.reject_unknown(path, raw, {"kind", *keys})
    return {"kind": kind, **{k: chk.value(path + (k,), key, ctx)
                             for k, key in keys.items()}}


def _methods(chk, path, value, ctx):
    if not isinstance(value, (str, list)):
        chk.fail(path, f"expected str or list, got {type(value).__name__}")
    methods = value if isinstance(value, list) else [value]
    if methods == ["all"]:
        methods = list(METHODS)
    if not methods:
        chk.fail(path, "needs at least one method")
    for m in methods:
        if m not in METHODS:
            chk.fail(path, f"unknown method {m!r} "
                     f"(known: {list(METHODS) + ['all']})")
    if len(set(methods)) != len(methods):
        chk.fail(path, "duplicate methods")
    return methods


@dataclass
class Sweep:
    parameter: str
    values: list


_SECTIONS = {
    "bounds": _Section("bounds", EllipticityBounds),
    "discretization": _Section("disc", Discretization),
    "optimizer": _Section("optimizer", OptimizerOptions),
    "fixed_point": _Section("fixed_point", FixedPointOptions),
    "bisect": _Section("bisect", BisectOptions),
    "sweep": _Section("sweep", Sweep, optional=True),
}

# Every accepted key path, in resolved-tree order. The option sections name
# only the keys a config may set; their other dataclass fields (the
# discretization's dim, optimizer min_step, fixed-point initial_guess) keep
# their defaults and stay out of the resolved tree and its hash.
_SCHEMA = {
    "name": _Key(str, "experiment"),
    "dim": _Key(int, check=_one_of((1, 2))),
    "bounds.alpha": _Key(float),
    "bounds.beta": _Key(float),
    "field": _Key(_field_spec, attr="field_spec"),
    "method": _Key(_methods, "all", attr="methods"),
    "rescale": _Key(float, 1.0, _POSITIVE),
    "naive_exterior": _Key(_admissible_matrix, None),
    "discretization.L": _Key(check=_check(
        lambda v: v >= 2.0, "L = {v}: the unit ball must be strictly interior "
                            "to the truncated box, which needs L >= 2")),
    "discretization.h": _Key(),
    "discretization.quad_order": _Key(),
    "discretization.cg_tol": _Key(),
    "discretization.cg_max_iter": _Key(check=_POSITIVE),
    "discretization.solver": _Key(),
    "discretization.max_vertices": _Key(check=_POSITIVE),
    "periodic.divisions": _Key(int, 64, _check(lambda v: v >= 2, "must be >= 2"),
                               attr="periodic_divisions"),
    "optimizer.max_iters": _Key(check=_POSITIVE),
    "optimizer.grad_tol": _Key(check=_POSITIVE),
    "optimizer.initial_step": _Key(check=_POSITIVE),
    "optimizer.backtrack": _Key(check=_check(lambda v: 0 < v < 1,
                                             "must be in (0, 1)")),
    "optimizer.sufficient_increase": _Key(),
    "optimizer.fd_check": _Key(),
    "fixed_point.damping": _Key(),
    "fixed_point.max_iters": _Key(check=_POSITIVE),
    "fixed_point.tol": _Key(check=_POSITIVE),
    "bisect.tol": _Key(check=_POSITIVE),
    "bisect.max_iters": _Key(check=_POSITIVE),
    "bisect.bracket_tol": _Key(check=_POSITIVE),
    "sweep.parameter": _Key(str, check=_one_of(SWEEP_PARAMETERS)),
    "sweep.values": _Key(list, check=_check(bool, "sweep needs at least one value")),
    "output.dir": _Key(str, "out", attr="output_dir"),
    "output.csv": _Key(str, "results.csv", _check(
        lambda v: v not in ("", ".", "..") and os.path.basename(v) == v,
        "must be a file name without a directory part, got {v!r}"),
        attr="csv_name"),
}


def _tree(schema):
    """Group the key paths: top-level key -> _Key, section -> {key: _Key};
    fill in the option keys' types and defaults from their dataclasses."""
    tree = {}
    for path, key in schema.items():
        section, _, name = path.partition(".")
        if not name:
            tree[section] = key
            continue
        tree.setdefault(section, {})[name] = key
        if key.types is None:
            cls = _SECTIONS[section].cls
            field = {f.name: f for f in dataclasses.fields(cls)}[name]
            key.types = typing.get_args(field.type) or (field.type,)
            key.default = field.default
    return tree


_TREE = _tree(_SCHEMA)


class _Checker:
    """Typed accessors over the raw tree, erroring with key path and line."""

    def __init__(self, data, lines):
        self.data = data
        self.lines = lines

    def fail(self, path, message):
        loc = ".".join(str(p) for p in path) or "(top level)"
        line = self.lines.get(tuple(path))
        at = f" (line {line})" if line else ""
        raise ConfigError(f"{loc}{at}: {message}")

    def lookup(self, path):
        node = self.data
        for part in path:
            if isinstance(node, dict) and part in node:
                node = node[part]
            else:
                return None, False
        return node, True

    def value(self, path, key, ctx):
        """The parsed and checked value of one key, or its default."""
        value, present = self.lookup(path)
        if not present:
            if key.default is _REQUIRED:
                self.fail(path, "required key is missing")
            if key.default is None:
                return None
            value = key.default
        if callable(key.types):
            value = key.types(self, path, value, ctx)
        else:
            if float in key.types and type(value) is int:
                value = float(value)
            # bool is an int subclass; never accept it for numeric keys
            if not isinstance(value, key.types) or (
                    type(value) is bool and bool not in key.types):
                names = " | ".join(t.__name__ for t in key.types)
                self.fail(path, f"expected {names}, "
                                f"got {type(value).__name__}: {value!r}")
        if key.check and value is not None and (message := key.check(value)):
            self.fail(path, message)
        return value

    def reject_unknown(self, path, mapping, known):
        for key in mapping:
            if key not in known:
                self.fail(path + (key,), f"unknown key {key!r} "
                          f"(known: {sorted(known)})")


@dataclass
class ExperimentConfig:
    """Fully validated and defaulted experiment description."""

    name: str
    dim: int
    bounds: EllipticityBounds
    field_spec: dict
    methods: list
    rescale: float
    naive_exterior: object
    disc: Discretization
    periodic_divisions: int
    optimizer: OptimizerOptions
    fixed_point: FixedPointOptions
    bisect: BisectOptions
    sweep: object
    output_dir: str
    csv_name: str

    def resolved(self):
        """Canonical defaulted tree (printed by validate, hashed for reports)."""
        tree = {}
        for name, entry in _TREE.items():
            if isinstance(entry, _Key):
                tree[name] = getattr(self, entry.attr or name)
                continue
            section = _SECTIONS.get(name)
            obj = self if section is None else getattr(self, section.attr)
            tree[name] = None if obj is None else {
                k: getattr(obj, key.attr or k) for k, key in entry.items()}
        return copy.deepcopy(tree)

    def config_hash(self):
        blob = json.dumps(self.resolved(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def build_field(self, seed=None):
        """Instantiate the coefficient field, optionally overriding the seed."""
        spec = dict(self.field_spec)
        kind = spec.pop("kind")
        if seed is not None:
            if kind not in RANDOM_KINDS:
                raise ConfigError(
                    f"cannot override seed: field kind {kind!r} is deterministic"
                )
            spec["seed"] = int(seed)
        if kind != "one_dim_piecewise":
            spec["dim"] = self.dim
        return _FIELD_KINDS[kind][0](bounds=self.bounds, **spec)


def _check_points(chk, cfg):
    """Checks across keys: every sweep point and the field must build."""
    sweep = cfg.sweep
    if sweep is not None:
        if sweep.parameter == "seed" and cfg.field_spec["kind"] not in RANDOM_KINDS:
            chk.fail(("sweep", "parameter"),
                     f"cannot sweep seed: field kind {cfg.field_spec['kind']!r} "
                     f"is deterministic")
        for i, v in enumerate(sweep.values):
            path = ("sweep", "values", i)
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                chk.fail(path, f"not a number: {v!r}")
            if sweep.parameter == "seed" and not isinstance(v, int):
                chk.fail(path, "seed values must be integers")
            if sweep.parameter == "R" and v <= 0:
                chk.fail(path, "R values must be positive")
            if sweep.parameter in ("L", "h"):
                # the runner builds each point's discretization the same way
                try:
                    dataclasses.replace(cfg.disc, **{sweep.parameter: float(v)})
                except GeometryError as exc:
                    chk.fail(path, str(exc))
    try:
        cfg.build_field()
    except EmbedHomError as exc:
        chk.fail(("field",), str(exc))


def parse_config(text, apply_overrides=()):
    """Parse and validate a config document; returns ExperimentConfig.

    apply_overrides: strings "dotted.key=value" patched into the raw tree
    before validation (values parsed as YAML scalars).
    """
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("config must be a mapping at the top level")
    lines = _line_map(text)

    for item in apply_overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, raw_value = item.partition("=")
        try:
            value = yaml.safe_load(raw_value)
        except yaml.YAMLError as exc:
            raise ConfigError(f"override {item!r}: bad value: {exc}") from exc
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override {item!r}: {part} is not a mapping")
        node[parts[-1]] = value

    data = _coerce_numbers(data)
    chk = _Checker(data, lines)
    chk.reject_unknown((), data, _TREE)
    # ExperimentConfig's arguments, filled in schema order, so a parser can
    # read the keys before its own (dim, bounds)
    ctx = {}
    for name, entry in _TREE.items():
        path = (name,)
        if isinstance(entry, _Key):
            ctx[entry.attr or name] = chk.value(path, entry, ctx)
            continue
        raw, _ = chk.lookup(path)
        section = _SECTIONS.get(name)
        if raw is None and section is not None and section.optional:
            ctx[section.attr] = None
            continue
        if raw is not None and not isinstance(raw, dict):
            chk.fail(path, f"expected a mapping, got {type(raw).__name__}")
        chk.reject_unknown(path, raw or {}, entry)
        values = {key.attr or k: chk.value(path + (k,), key, ctx)
                  for k, key in entry.items()}
        if section is None:
            ctx.update(values)
            continue
        if section.cls is Discretization:
            values["dim"] = ctx["dim"]
        try:
            ctx[section.attr] = section.cls(**values)
        except (EmbedHomError, ValueError) as exc:
            chk.fail(path, str(exc))

    cfg = ExperimentConfig(**ctx)
    _check_points(chk, cfg)
    return cfg


def load_config(path, apply_overrides=()):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, apply_overrides=apply_overrides)
