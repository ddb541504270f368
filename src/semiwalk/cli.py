"""Command-line surface: reproducible pipelines over the library modules.

Every subcommand writes its artifacts plus a manifest (config echo and
sha256 checksums) into the output directory, so a run can be reproduced and
compared byte for byte. Exit codes: 0 success, 1 a requested check failed,
2 usage or input errors (with a JSON error object on stderr).

Each option is declared once, in ``_COMMANDS``. Its flag, its config-file
key and its manifest key all come from that one entry, so the manifest's
``config`` object, passed back as ``--config``, replays the run.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, circuit as circuit_mod, dynamics, family as family_mod, graphs
from . import instances, presets, verify
from .errors import ParseError, SemiwalkError
from .graphs import ProbabilityVector, TransitionMatrix

ENV_OUT = "SEMIWALK_OUT"


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.subcommand is None:
        parser.print_help()
        return 2
    handler, _, options = _COMMANDS[args.subcommand]
    try:
        opts = _resolve(options, vars(args))
        outdir = Path(opts.pop("out") or os.environ.get(ENV_OUT, "semiwalk-out"))
        code, artifacts = handler(opts)
        outdir.mkdir(parents=True, exist_ok=True)
        _emit(outdir, args.subcommand, opts, artifacts)
        return code
    except (SemiwalkError, OSError, ValueError) as exc:
        _error_json(exc)
        return 2


def _error_json(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


# --- option plumbing ----------------------------------------------------------

@functools.cache  # built once per process; parse_args leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiwalk",
        description="Szegedy walk families: build, analyze, rank, sample, synthesize.",
    )
    sub = parser.add_subparsers(dest="subcommand")
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; explicit flags override it")
        for key, typ, _default, choices in [*options, _OUT]:
            if key == "name":  # the preset name is the one positional option
                p.add_argument(key, nargs="?", choices=choices)
            elif typ is bool:
                p.add_argument("--" + key.replace("_", "-"), action="store_true", default=None)
            else:
                p.add_argument("--" + key.replace("_", "-"), choices=choices,
                               type=typ if typ in (int, float) else None)
    return parser


def _resolve(options: list[tuple], args: dict) -> dict:
    """Each option's value: its flag, else the config file, else its default."""
    try:
        cfg = json.loads(Path(args["config"]).read_text()) if args["config"] else {}
    except RecursionError:
        raise ValueError("config file nests too deeply") from None
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    options = [*options, _OUT]
    unknown = sorted(set(cfg) - {key for key, *_ in options})
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    opts = {}
    for key, typ, default, choices in options:
        if args[key] is not None:
            value = [float(tok) for tok in args[key].split(",")] if typ is list else args[key]
        elif key in cfg:
            value = _config_value(key, typ, cfg[key], default)
        else:
            value = default
        if value is _REQUIRED:
            raise ValueError(f"{key} is required")
        if choices is not None and value not in choices:
            raise ValueError(f"{key} must be one of {list(choices)}, got {value!r}")
        opts[key] = value
    return opts


# What a config-file value of each option type must be. ``type(v) is int``
# keeps JSON true/false out of int options; ``list`` is a list of floats,
# spelled comma-separated on the command line.
_JSON_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: type(v) is str),
    bool: ("true or false", lambda v: type(v) is bool),
    list: ("a list of numbers", lambda v: type(v) is list and all(type(x) in (int, float) for x in v)),
}


def _config_value(key: str, typ: type, value, default):
    # null stands for a default the handler derives, and is accepted only there
    if value is None and default is None:
        return None
    what, ok = _JSON_TYPES[typ]
    try:
        if ok(value):
            return [float(x) for x in value] if typ is list else typ(value)
    except OverflowError:  # an int beyond float range for a float option
        pass
    raise ValueError(f"config key {key!r} must be {what}, got {json.dumps(value)}")


def _load_matrix(opts: dict) -> TransitionMatrix:
    data = Path(opts["input"]).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8: {exc.reason} at byte {exc.start}") from None
    return graphs.deserialize(text, opts["format"])


def _start(opts: dict, n: int) -> ProbabilityVector:
    """The start distribution ``p0`` (uniform if unset), recorded back as a list."""
    if opts["p0"] is None:
        p0 = ProbabilityVector.uniform(n)
    else:
        p0 = ProbabilityVector(np.array(opts["p0"]))
    opts["p0"] = list(map(float, p0.p))
    return p0


class _Chunks:
    """Artifact text made chunk by chunk each time it is read: ``_emit``
    writes each chunk as it comes, so the whole text is never held;
    ``encode()`` gives it whole, as a str artifact's does."""

    def __init__(self, chunks):  # a callable returning an iterable of str
        self._chunks = chunks

    def __iter__(self):
        return iter(self._chunks())

    def encode(self) -> bytes:
        return "".join(self).encode()


def _emit(outdir: Path, subcommand: str, config: dict, artifacts: dict) -> None:
    """Write each artifact, a str or an iterable of str chunks, and the
    manifest of their sha256 checksums, each taken as its chunks are written."""
    checksums = {}
    for name, text in artifacts.items():
        digest = hashlib.sha256()
        with open(outdir / name, "wb") as fh:
            for chunk in [text] if isinstance(text, str) else text:
                data = chunk.encode()
                fh.write(data)
                digest.update(data)
        checksums[name] = digest.hexdigest()
    manifest = {"subcommand": subcommand, "config": config, "artifacts": checksums,
                "versions": {"semiwalk": __version__, "numpy": np.__version__}}
    (outdir / "manifest.json").write_bytes(presets.json_text(manifest).encode())


# --- subcommand handlers ------------------------------------------------------
# A handler takes the resolved options, writes back any value it derives, and
# returns (exit code, artifacts); ``main`` records the options in the manifest.

def _cmd_family(opts: dict) -> tuple[int, dict]:
    g = _load_matrix(opts)
    fam = family_mod.build_family(g, opts["class"], opts["tq_max"])
    return 0, {"family.json": _Chunks(lambda: itertools.chain(fam.json_chunks(), ["\n"]))}


def _cmd_cycle(opts: dict) -> tuple[int, dict[str, str]]:
    n = opts["n"]
    if opts["tq_max"] is None:
        opts["tq_max"] = 2 * n
    report, fam = presets.cycle_report(n, opts["tq_max"], opts["tol"])
    count = min(opts["tq_max"], n)
    report["components"] = presets.member_components(fam, count)
    measured, ok = report["measured"], report["match"]
    print(f"{'PASS' if ok else 'FAIL'} cycle n={n}: "
          f"distinct={measured['distinct_count']} family_period={measured['family_period']} "
          f"unitary_period={measured['unitary_period']} "
          f"closed-form dev={report['closed_form_max_deviation']:.2e}")
    dots = presets.member_dots(fam, count, len(str(n)))
    return (0 if ok else 1), {"cycle.json": presets.json_text(report), **dots}


def _cmd_evolve(opts: dict) -> tuple[int, dict[str, str]]:
    g = _load_matrix(opts)
    p0 = _start(opts, g.n)
    member = family_mod.semiclassical_matrix(g, opts["tq"], opts["class"])
    return 0, {"evolve.csv": presets.evolve_csv(member, p0, opts["steps"])}


def _cmd_rank(opts: dict) -> tuple[int, dict[str, str]]:
    report = presets.rank_report(_load_matrix(opts), opts["class"], opts["tq_max"], opts["tol"])
    return 0, {"rank.json": presets.json_text(report)}


def _cmd_sample(opts: dict) -> tuple[int, dict[str, str]]:
    g = _load_matrix(opts)
    steps = opts["steps"]
    member = family_mod.semiclassical_matrix(g, opts["tq"], opts["class"])
    nodes = dynamics.sample_trajectories(member, opts["x0"], steps, opts["seed"], opts["count"])
    rows = ["trajectory," + ",".join(f"x{t}" for t in range(steps + 1))]
    rows += [f"{k}," + ",".join(map(str, row)) for k, row in enumerate(nodes.tolist())]
    return 0, {"trajectories.csv": "\n".join(rows) + "\n"}


def _cmd_circuit(opts: dict) -> tuple[int, dict[str, str]]:
    g = instances.two_node_chain() if opts["input"] is None else _load_matrix(opts)
    c = circuit_mod.build_circuit(g, _start(opts, 2), opts["tq"], opts["tc"])
    report = presets.circuit_report(c)
    print(f"{'PASS' if report['ok'] else 'FAIL'} circuit t_q={c.t_q}: "
          f"block dev={report['block_deviation']:.2e} channel dev={report['channel_deviation']:.2e}")
    return (0 if report["ok"] else 1), presets.circuit_artifacts(c, opts["classical_control"], **report)


def _cmd_verify(opts: dict) -> tuple[int, dict[str, str]]:
    count, seed = opts["count"], opts["seed"]
    checks = verify.run_verification(count=count, seed=seed)
    ok = all(c["passed"] for c in checks)
    for c in checks:
        print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    report = {"count": count, "seed": seed, "checks": checks, "ok": ok}
    return (0 if ok else 1), {"verify_report.json": presets.json_text(report)}


def _cmd_preset(opts: dict) -> tuple[int, dict[str, str]]:
    return 0, presets.PRESETS[opts["name"]]()


# --- option table -------------------------------------------------------------
# subcommand -> (handler, help, options); an option is (key, type, default,
# choices). The flag is "--" plus the key with "_" spelled "-"; the config-file
# and manifest key is the key itself. A None default is one the handler
# derives (and records) or, for the circuit's input, the built-in chain.

_REQUIRED = object()
_INPUT = ("input", str, _REQUIRED, None)
_FORMAT = ("format", str, "csv", ("csv", "json"))
_CLASS = ("class", int, 1, (1, 2))
_OUT = ("out", str, None, None)  # every subcommand's; not in the manifest

_COMMANDS = {
    "family": (_cmd_family, "walk family of an input graph",
               [_INPUT, _FORMAT, _CLASS, ("tq_max", int, 10, None)]),
    "cycle": (_cmd_cycle, "closed-form predictions vs the pipeline on the n-cycle",
              [("n", int, _REQUIRED, None), ("tq_max", int, None, None),
               ("tol", float, family_mod.MATRIX_TOL, None)]),
    "evolve": (_cmd_evolve, "classical time series under one family member",
               [_INPUT, _FORMAT, _CLASS, ("tq", int, 1, None), ("steps", int, 20, None),
                ("p0", list, None, None)]),
    "rank": (_cmd_rank, "averaged-limit node ranking over the family",
             [_INPUT, _FORMAT, _CLASS, ("tq_max", int, 20, None),
              ("tol", float, dynamics.DEFAULT_TOL, None)]),
    "sample": (_cmd_sample, "seeded stochastic trajectories of one member",
               [_INPUT, _FORMAT, _CLASS, ("tq", int, 1, None), ("x0", int, 0, None),
                ("steps", int, 100, None), ("count", int, 1, None), ("seed", int, 0, None)]),
    "circuit": (_cmd_circuit, "two-node walk circuit: OpenQASM plus verification",
                [("input", str, None, None), _FORMAT, ("tq", int, 1, None), ("tc", int, 2, None),
                 ("p0", list, None, None), ("classical_control", bool, False, None)]),
    "verify": (_cmd_verify, "full theorem/property suite with pass/fail summary",
               [("count", int, 100, None), ("seed", int, 0, None)]),
    "preset": (_cmd_preset, "named data reproductions (fig3..fig10)",
               [("name", str, _REQUIRED, tuple(sorted(presets.PRESETS)))]),
}


if __name__ == "__main__":
    sys.exit(main())
