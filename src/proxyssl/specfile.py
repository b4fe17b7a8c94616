"""Experiment spec files: INI text with a ``[global]`` section, one
``[study <name>]`` section per table and an optional ``[reference]`` section
of expected cell means (``<dataset>@<rate>/<row> = <value>``) that the run
report compares against without gating anything (``report.report_files``
rejects a key that names no cell). README.md shows an example.

Every key a section takes is declared once, in ``GLOBAL_KEYS``,
``STUDY_KEYS`` or ``LIST_KEYS``, with the config field it sets. A key that is
absent leaves that field's dataclass default in place; a key the section
does not take is a ConfigError. ``STUDY_KINDS`` gives the rows of each study
kind. Every study implicitly includes the Supervised baseline so
significance can be marked.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from .classifier import TrainConfig
from .dataset import load_csv
from .engine import ALGORITHMS, SslConfig
from .errors import ConfigError
from .protocol import AlgorithmEntry, ExperimentGrid


@dataclass
class ExperimentSpec:
    grids: list[ExperimentGrid]
    out_dir: str | None = None
    reference: dict = field(default_factory=dict)  # (dataset, rate, row) -> value


def _split_list(raw):
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def _floats(raw):
    return [float(v) for v in _split_list(raw)]


def _bool(raw):
    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.lower() not in states:
        raise ValueError(f"expected true or false, got {raw!r}")
    return states[raw.lower()]


def _pairs(raw, cast):
    pairs = [item.split(":") for item in _split_list(raw)]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"expected comma-separated lo:hi pairs, got {raw!r}")
    return [(cast(lo), cast(hi)) for lo, hi in pairs]


def _rates_from_fractions(raw):
    fractions = _floats(raw)
    if not all(0.0 < f <= 1.0 for f in fractions):
        raise ValueError(f"labeled fractions must lie in (0, 1], got {raw!r}")
    return [round(1.0 - f, 9) for f in fractions]


# spec key -> (what it sets, field name, parser). "spec" sets ExperimentSpec,
# "train" TrainConfig, "grid" ExperimentGrid, "ssl" SslConfig; "study" values
# pick a study's rows and "data" names the files parse_spec loads.
GLOBAL_KEYS = {
    "datasets": ("data", "paths", _split_list),
    "out_dir": ("spec", "out_dir", str),
    "learning_rate": ("train", "learning_rate", float),
    "batch_size": ("train", "batch_size", int),
    "epochs": ("train", "epochs", int),
    "n_folds": ("grid", "n_folds", int),
    "n_seeds": ("grid", "n_seeds", int),
    "base_seed": ("grid", "base_seed", int),
}
STUDY_KEYS = {
    "kind": ("study", "kind", str),
    "algorithms": ("study", "algorithms", _split_list),
    "rates": ("grid", "unlabeled_rates", _floats),
    "include_oracle": ("grid", "include_oracle", _bool),
    "tau1": ("ssl", "tau1", float),
    "tau2": ("ssl", "tau2", float),
    "count_lo": ("ssl", "count_lo", int),
    "count_hi": ("ssl", "count_hi", int),
    "max_iterations": ("ssl", "max_iterations", int),
    "fresh_model": ("ssl", "fresh_model_each_iteration", _bool),
    "sampling": ("ssl", "sampling", str),
    "eval": ("ssl", "eval_mode", str),
}
# the one list key of a study kind; "study" "rows" are (detail, SslConfig overrides)
LIST_KEYS = {
    "modes": ("study", "rows", lambda raw: [(mode.replace(":", "+"), {"sampling": mode})
                                            for mode in _split_list(raw)]),
    "pairs": ("study", "rows", lambda raw: [(f"t{t1:g}-{t2:g}", {"tau1": t1, "tau2": t2})
                                            for t1, t2 in _pairs(raw, float)]),
    "windows": ("study", "rows", lambda raw: [(f"c{lo}-{hi}", {"count_lo": lo, "count_hi": hi})
                                              for lo, hi in _pairs(raw, int)]),
    "fractions": ("grid", "unlabeled_rates", _rates_from_fractions),
}


class StudyKind(NamedTuple):
    algorithms: tuple  # the SSL algorithms it runs; "supervised" is always accepted
    list_key: str | None = None  # its key in LIST_KEYS, read as list_default when absent
    list_default: str = ""
    rows: tuple = (("std", {}),)  # (detail, SslConfig overrides) when it has no list key
    oracle: bool = False  # whether the Oracle row runs when include_oracle is absent


STUDY_KINDS = {
    "baselines": StudyKind(ALGORITHMS, oracle=True),
    "sampling": StudyKind(("TT", "TTWD"), "modes",
                          "x:norepl, 2x:repl, x:repl, x_half:repl, x_third_disjoint:nointer"),
    "fresh_model": StudyKind(ALGORITHMS, rows=(("fresh", {"fresh_model_each_iteration": True}),
                                               ("warm", {"fresh_model_each_iteration": False}))),
    "eval_mode": StudyKind(("TT", "TTWD", "CT"), rows=(("ensemble", {"eval_mode": "ensemble"}),
                                                       ("single", {"eval_mode": "best_single"}))),
    "thresholds": StudyKind(("TBST",), "pairs", "0.7:1.0, 0.8:1.0, 0.9:1.0, 0.7:0.9, 0.7:0.8, 0.8:0.9"),
    "count_windows": StudyKind(("CBST",), "windows", "0:300, 0:200, 0:100, 100:200, 100:300, 200:300"),
    "sweep": StudyKind((), "fractions", "0.05, 0.10, 0.20, 1.0"),
}


def _read(items, keys):
    """Parse ``items`` (key -> raw text) by ``keys`` into {target: {field: value}}."""
    out = {"spec": {}, "train": {}, "grid": {}, "study": {}, "ssl": {}, "data": {}}
    for key, raw in items.items():
        if key not in keys:
            raise ConfigError(f"unknown key {key!r}; this section takes {', '.join(keys)}")
        target, name, parse = keys[key]
        try:
            out[target][name] = parse(raw)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{key}: {exc}") from None
    return out


def _study_keys(kind):
    """The keys a study of ``kind`` takes: its list key, and every study key
    whose field neither that list key nor the kind's rows set; SSL keys only
    when it runs an SSL algorithm."""
    own, rows = {}, kind.rows
    if kind.list_key:
        own = {kind.list_key: LIST_KEYS[kind.list_key]}
        rows = _read({kind.list_key: kind.list_default}, own)["study"].get("rows", rows)
    taken = {spec[:2] for spec in own.values()} | {("ssl", f) for _, o in rows for f in o}
    return {**{key: spec for key, spec in STUDY_KEYS.items()
               if spec[:2] not in taken and (kind.algorithms or spec[0] != "ssl")}, **own}


def _study_grid(study_name, items, datasets, common, train):
    """One ExperimentGrid: Supervised, then each algorithm's rows in turn."""
    kind_name = items.get("kind", "baselines")
    if kind_name not in STUDY_KINDS:
        raise ConfigError(f"kind: unknown study kind {kind_name!r}, "
                          f"expected one of {', '.join(STUDY_KINDS)}")
    kind = STUDY_KINDS[kind_name]
    if kind.list_key:
        items = {kind.list_key: kind.list_default, **items}
    values = _read(items, _study_keys(kind))
    study = values["study"]
    names = study.get("algorithms", list(kind.algorithms) if len(kind.algorithms) == 1 else [])
    if not names and kind.algorithms:
        raise ConfigError("algorithms: empty algorithm list")
    # each row's config is checked even when the study names no SSL algorithm
    rows = [(detail, SslConfig(kind.algorithms[0], **{**values["ssl"], **overrides}))
            for detail, overrides in study.get("rows", kind.rows)] if kind.algorithms else []
    entries = [AlgorithmEntry("supervised")]
    for name in names:
        if name == "supervised":
            continue
        if name not in kind.algorithms:
            raise ConfigError(f"algorithms: a {kind_name} study runs "
                              f"{', '.join(kind.algorithms) or 'only supervised'}, got {name!r}")
        entries += [AlgorithmEntry(name, replace(ssl, algorithm=name), detail=detail)
                    for detail, ssl in rows]
    return ExperimentGrid(datasets=datasets, algorithms=entries, train=train, study=study_name,
                          **{"include_oracle": kind.oracle, **common, **values["grid"]})


def parse_spec(path):
    """Parse and fully validate a spec file; loads every referenced dataset.

    All datasets must exist and all configs must pass their invariants
    before any training starts.
    """
    if not os.path.exists(path):
        raise ConfigError(f"spec file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)  # values are literal text
    cp.optionxform = str  # keep key case for dataset names in [reference]
    try:
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}")
    try:
        g = _read(cp["global"] if "global" in cp else {}, GLOBAL_KEYS)
        train = TrainConfig(**g["train"])
    except ConfigError as exc:
        raise ConfigError(f"{path}: [global] {exc}") from None
    paths = g["data"].get("paths")
    if not paths:
        raise ConfigError(f"{path}: [global] datasets must list at least one file")
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ConfigError(f"{path}: dataset file not found: {missing[0]}")
    datasets = [load_csv(p) for p in paths]

    grids = []
    for section in cp.sections():
        if section.startswith("study "):
            try:
                grids.append(_study_grid(section.split(" ", 1)[1].strip(), cp[section],
                                         datasets, g["grid"], train))
            except ConfigError as exc:
                raise ConfigError(f"{path}: [{section}] {exc}") from None
        elif section not in ("global", "reference"):
            raise ConfigError(f"{path}: unknown section [{section}], expected [global], "
                              f"[study <name>] or [reference]")
    if not grids:
        raise ConfigError(f"{path}: no [study ...] sections")

    reference = {}
    if "reference" in cp:
        for key, raw in cp["reference"].items():
            try:
                where, row = key.split("/", 1)
                ds_name, rate = where.split("@", 1)
                cell = (ds_name.strip(), float(rate), row.strip())
            except ValueError:
                raise ConfigError(f"{path}: [reference] key {key!r} must look like 'news@0.90/TTWD'")
            try:
                reference[cell] = float(raw)
            except ValueError:
                reference[cell] = math.nan
            if not math.isfinite(reference[cell]):
                raise ConfigError(f"{path}: [reference] {key}: expected a number, got {raw!r}")

    return ExperimentSpec(grids=grids, reference=reference, **g["spec"])
