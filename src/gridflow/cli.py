"""Command-line front end over the whole package.

One process hosts one engine over one on-disk store. The store directory
is picked, in order, from --store, the GRIDFLOW_STORE environment
variable, the `store` key of a config file, then ./gridflow-store.

Exit codes are a contract: 0 success, 1 user error (syntax, unsound
workflow, licensing, unknown ids), 2 runtime failure (a run that started
and then failed, a damaged store), 3 internal error. Diagnostics go to
stderr; artifacts and reports go to stdout.
"""

import argparse
import configparser
import functools
import json
import os
import sys
import traceback
from pathlib import Path

from .dsl import parse, plan_text, to_dot, to_functional_plan, to_job_xml
from .engine import ACADEMIC, Engine
from .errors import GridflowError, RuntimeFailure, UserError
from .model import StructuralError, verify
from .quantities import format_number
from .resources import (
    DuplicateResource,
    parse_descriptor_xml,
    read_descriptors,
    render_descriptor_xml,
)
from .simgrid import PROGRAMS, standard_registry
from .storage import ContentStore

OK = 0
USER_ERROR = 1
RUNTIME_ERROR = 2
INTERNAL_ERROR = 3

DEFAULT_STORE = "gridflow-store"
CONFIG_SECTION = "gridflow"

# stage -> (program, upstream stages whose results it reads)
MOCK_STAGES = {
    "lattice": ("latgen", ()),
    "cbmc": ("mcsim", ("lattice",)),
    "gcmc": ("gulpgc", ("cbmc",)),
    "md": ("mdrun", ("cbmc", "gcmc")),
    "analysis": ("tsfit", ("lattice", "md")),
    "noop": ("noop", ()),
    "flip": ("flip", ()),
}
MOCK_DEFAULTS = {
    "cells": "8",
    "cell_length": "1.0",
    "theta": "0.0",
    "n_helium": "4",
    "steps": "16",
}


# -- configuration -------------------------------------------------------


def _load_config(path: str | None) -> dict:
    """Read the [gridflow] section of an ini-style key=value file."""
    if path is None:
        return {}
    text = _read_text(path, "config file")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise UserError(f"bad config file {path}: {exc}") from None
    if not cp.has_section(CONFIG_SECTION):
        return {}
    return dict(cp.items(CONFIG_SECTION))


def _store_dir(args, cfg) -> Path:
    if getattr(args, "store", None):
        return Path(args.store)
    env = os.environ.get("GRIDFLOW_STORE")
    if env:
        return Path(env)
    if cfg.get("store"):
        return Path(cfg["store"])
    return Path(DEFAULT_STORE)


def _open_store(args, cfg) -> ContentStore:
    return ContentStore(_store_dir(args, cfg))


def _open_engine(args, cfg) -> Engine:
    """Standard simulated pool plus every descriptor registered on disk."""
    store = _open_store(args, cfg)
    registry = standard_registry()
    for descriptor in read_descriptors(store.root / "resources"):
        registry.register(descriptor)
    return Engine(registry, store)


def _read_text(path: str, what: str = "file") -> str:
    file = Path(path)
    if not file.is_file():
        raise UserError(f"{what} not found: {path}")
    try:
        return file.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UserError(f"{path}: {exc}") from None


def _user_profile(args, cfg) -> tuple[str, str]:
    """(name, affiliation) of --user NAME[:AFFILIATION] or the config's user."""
    raw = args.user or cfg.get("user")
    if not raw:
        raise UserError("no user profile: pass --user NAME[:AFFILIATION]")
    name, sep, affiliation = raw.partition(":")
    if not name:
        raise UserError(f"bad user profile: {raw!r}")
    return (name, affiliation) if sep else (name, ACADEMIC)


def _param_pairs(raw: list[str]) -> tuple[tuple[str, str], ...]:
    pairs = []
    for item in raw:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise UserError(f"bad parameter {item!r}: expected key=value")
        pairs.append((key, value))
    return tuple(pairs)


def _fault_plan(raw: list[str]) -> tuple[tuple[str, int], ...]:
    plan = []
    for item in raw:
        activity, sep, occurrence = item.partition(":")
        if not sep or not activity:
            raise UserError(f"bad fault {item!r}: expected ACTIVITY:N")
        try:
            n = int(occurrence)
        except ValueError:
            raise UserError(f"bad fault {item!r}: occurrence must be an integer") from None
        if n < 1:
            raise UserError(f"bad fault {item!r}: occurrences count from 1")
        plan.append((activity, n))
    return tuple(plan)


def _seed(args, cfg) -> int:
    if args.seed is not None:
        return args.seed
    if cfg.get("seed"):
        try:
            return int(cfg["seed"])
        except ValueError:
            raise UserError(f"bad seed in config: {cfg['seed']!r}") from None
    return 0


# -- subcommands ----------------------------------------------------------


def cmd_register(args, cfg) -> int:
    descriptor = parse_descriptor_xml(_read_text(args.file))
    standard_registry().register(descriptor)  # refuses a pool id as a duplicate
    target = _open_store(args, cfg).root / "resources" / f"{descriptor.id}.xml"
    target.parent.mkdir(exist_ok=True)
    try:
        with open(target, "x", encoding="utf-8") as fh:
            fh.write(render_descriptor_xml(descriptor))
    except FileExistsError:
        raise DuplicateResource(f"resource already registered: {descriptor.id}") from None
    print(descriptor.id)
    return OK


def cmd_verify(args, cfg) -> int:
    try:
        graph = parse(_read_text(args.file))
    except StructuralError as exc:
        # degree and multiplicity violations block construction; report
        # them in the same finding shape the verifier uses
        findings = [
            {"kind": v.split(":", 1)[0], "text": v} for v in exc.violations
        ]
        if args.json:
            print(json.dumps({"sound": False, "findings": findings},
                             indent=2, sort_keys=True))
        else:
            for v in exc.violations:
                print(v)
        return USER_ERROR
    report = verify(graph)
    if args.json:
        payload = {
            "workflow": report.workflow,
            "mode": report.mode,
            "states": report.states,
            "sound": report.sound,
            "findings": [
                {"kind": f.kind, "subject": f.subject, "detail": f.detail}
                for f in report.findings
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return OK if report.sound else USER_ERROR
    if report.sound:
        print("sound")
        return OK
    for finding in report.findings:
        print(finding.text())
    return USER_ERROR


def cmd_export(args, cfg) -> int:
    graph = parse(_read_text(args.file))
    if args.to == "xml":
        sys.stdout.write(to_job_xml(graph).decode("utf-8"))
    elif args.to == "plan":
        print(plan_text(to_functional_plan(graph)))
    else:
        print(to_dot(graph), end="")
    return OK


def cmd_submit(args, cfg) -> int:
    graph = parse(_read_text(args.file))
    engine = _open_engine(args, cfg)
    print(_run(engine.execute, graph, *_user_profile(args, cfg), params=_param_pairs(args.param),
               max_iterations=args.max_iterations, seed=_seed(args, cfg),
               fault_plan=_fault_plan(args.fail_at)))
    return OK


def cmd_resume(args, cfg) -> int:
    engine = _open_engine(args, cfg)
    print(_run(engine.resume, args.run_id, fault_plan=_fault_plan(args.fail_at)))
    return OK


def _loop_budget(text: str) -> int:
    """A --max-iterations value: an integer, 0 or more."""
    if not (text.isascii() and text.isdecimal()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _run(call, *call_args, **call_kw):
    try:
        return call(*call_args, **call_kw)
    except GridflowError as exc:
        # a run that failed after its claim is persisted and resumable: its
        # id is an artifact
        if exc.run_id:
            print(exc.run_id)
        raise


def cmd_report(args, cfg) -> int:
    engine = _open_engine(args, cfg)
    data = engine.report(args.run_id, deterministic=args.deterministic)
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(_render_report(data))
    return OK


def _render_report(data: dict) -> str:
    lines = [
        f"run:       {data['run']}",
        f"workflow:  {data['workflow']}",
        f"hash:      {data['workflow_hash']}",
        f"status:    {data['status']}",
        f"user:      {data['user']['user']} ({data['user']['affiliation']})",
        f"seed:      {data['seed']}",
        f"started:   {data['started_at']}",
        f"finished:  {data['finished_at']}",
    ]
    if data["failure"]:
        lines.append(f"failure:   {data['failure']}")
    lines.append("bindings:")
    for activity in sorted(data["bindings"]):
        lines.append(f"  {activity} -> {data['bindings'][activity]}")
    lines.append("counters:")
    for activity, count in data["counters"]:
        lines.append(f"  {activity}: {count}")
    lines.append("results:")
    for activity in sorted(data["results"]):
        entry = data["results"][activity]
        parts = [
            f"{name}={format_number(value)}"
            for name, value in sorted(entry["scalars"].items())
        ]
        parts.extend(f"{name}={shape}" for name, shape in sorted(entry["other"].items()))
        lines.append(f"  {activity}: {' '.join(parts)}")
    lines.append("checkpoints:")
    for n, digest in enumerate(data["checkpoints"], start=1):
        lines.append(f"  {n} {digest}")
    prov = data["provenance"]
    lines.append("parameters:")
    for name, value in prov["parameters"]:
        lines.append(f"  {name} = {value}")
    lines.append("resources:")
    for activity, resource, program in prov["resources"]:
        lines.append(f"  {activity}: {resource} ({program})")
    lines.append("ledger:")
    for citation, subject in prov["ledger"]:
        lines.append(f"  {citation} [{subject}]")
    return "\n".join(lines)


def cmd_store_ls(args, cfg) -> int:
    store = _open_store(args, cfg)
    rows = store.checkpoints(args.run_id)
    if args.json:
        payload = [
            {"run": key.run_id, "activity": activity,
             "sequence": key.sequence, "hash": key.hash}
            for activity, key in rows
        ]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for activity, key in rows:
            print(f"ckpt {key.run_id} {activity} {key.sequence} {key.hash}")
    return OK


def cmd_store_audit(args, cfg) -> int:
    store = _open_store(args, cfg)
    journals = [(run_id, *store.journal_faults(run_id)) for run_id in store.runs()]
    faults = [f"corrupt {fault}" for fault in store.audit()]
    faults += [f"torn runs/{run_id}.log tail: {torn} bytes after the last newline"
               for run_id, torn, _ in journals if torn]
    faults += [fault for _, _, damage in journals for fault in damage]
    print("\n".join(faults) or "clean")
    return RUNTIME_ERROR if faults else OK


def cmd_mock(args, cfg) -> int:
    params = dict(MOCK_DEFAULTS)
    params["seed"] = str(args.seed if args.seed is not None else 0)
    params.update(dict(_param_pairs(args.param)))
    text = _mock_native(args.name, params)
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return OK


def _mock_native(name: str, params: dict) -> str:
    """Native output of one stage, fed the adapted results of the stages
    upstream. Each stage it needs runs once, in MOCK_STAGES order, which
    lists every stage after the stages it reads."""
    needed = {name}
    for stage in reversed(MOCK_STAGES):
        if stage in needed:
            needed.update(MOCK_STAGES[stage][1])
    results = {}
    for stage in filter(needed.__contains__, MOCK_STAGES):
        program, upstream = MOCK_STAGES[stage]
        text = PROGRAMS[program].run(params, {up: results[up] for up in upstream})
        if stage == name:
            return text
        results[stage] = PROGRAMS[program].parse(text)


# -- parser ---------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The whole argument tree, built once per process. parse_args keeps no
    state between calls, and an append option copies its default list
    before it appends, so calls share no option values."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--store", metavar="DIR",
                        help="store directory (default: $GRIDFLOW_STORE or ./gridflow-store)")
    common.add_argument("--config", metavar="FILE",
                        help="ini-style config file with a [gridflow] section")

    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true",
                         help="machine-readable JSON output")

    parser = argparse.ArgumentParser(
        prog="gridflow",
        description="Author, verify, translate, run, resume, and report workflows.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("register", parents=[common],
                       help="add a resource descriptor to the pool")
    p.add_argument("file", help="resource descriptor XML file")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("verify", parents=[common, as_json],
                       help="check a workflow for soundness")
    p.add_argument("file", help="workflow source file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", parents=[common],
                       help="translate a workflow to another format")
    p.add_argument("file", help="workflow source file")
    p.add_argument("--to", required=True, choices=("xml", "plan", "dot"),
                   help="target format: job-sequence XML, functional plan, or DOT")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("submit", parents=[common],
                       help="plan and execute a workflow, printing the run id")
    p.add_argument("file", help="workflow source file")
    p.add_argument("--user", metavar="NAME[:AFFILIATION]",
                   help="submitting user; affiliation academic (default) or commercial")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="override a declared activity parameter (repeatable)")
    p.add_argument("--seed", type=int, default=None, help="run seed (default 0)")
    p.add_argument("--fail-at", action="append", default=[], metavar="ACTIVITY:N",
                   help="inject a fault at the Nth firing of an activity (repeatable)")
    p.add_argument("--max-iterations", type=_loop_budget, default=100,
                   help="loop repetition budget (default 100)")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("resume", parents=[common],
                       help="continue an interrupted run from its checkpoints")
    p.add_argument("run_id", help="run to resume")
    p.add_argument("--fail-at", action="append", default=[], metavar="ACTIVITY:N",
                   help="inject a fault at the Nth firing of an activity (repeatable)")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser("report", parents=[common, as_json],
                       help="print the run report with provenance")
    p.add_argument("run_id", help="run to report on")
    p.add_argument("--deterministic", action="store_true",
                   help="redact timestamps and the run id for byte-stable output")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("store", parents=[], help="inspect the content store")
    store_sub = p.add_subparsers(dest="store_command", required=True, metavar="COMMAND")
    q = store_sub.add_parser("ls", parents=[common, as_json],
                             help="list a run's committed checkpoints")
    q.add_argument("run_id", help="run to list")
    q.set_defaults(func=cmd_store_ls)
    q = store_sub.add_parser("audit", parents=[common],
                             help="re-hash every blob and replay each run journal from disk")
    q.set_defaults(func=cmd_store_audit)

    p = sub.add_parser("mock", parents=[common],
                       help="print one simulated program's native output")
    p.add_argument("name", choices=tuple(MOCK_STAGES), help="program stage")
    p.add_argument("--seed", type=int, default=None, help="program seed (default 0)")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="override a stage parameter (repeatable)")
    p.set_defaults(func=cmd_mock)

    return parser


def run_cli(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; 2 is
        # reserved for runtime failures, so bad usage maps to 1
        return OK if exc.code in (0, None) else USER_ERROR
    try:
        cfg = _load_config(getattr(args, "config", None))
        return args.func(args, cfg)
    except UserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR
    except RuntimeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USER_ERROR
    except Exception:  # noqa: BLE001 - last-resort mapping to exit code 3
        traceback.print_exc()
        return INTERNAL_ERROR


def main():
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
