"""Command-line interface.

All indices in CLI input and output are 1-based (internal representation is
0-based). Exit codes: 0 success (and "yes" for retentive/isomorphic), 1 "no",
2 usage errors, 3 malformed or unreadable input files, or an unusable
``search --witness-dir``.
"""

import argparse
import json
import sys
from pathlib import Path

from . import core, counterexample, search
from .teq import TeqCache, is_retentive, minimal_retentive_sets, teq

PROG = "teqtools"


def _index_list_to_mask(text: str, order: int, flag: str) -> int:
    """Mask of a comma-separated 1-based list; every index parses before any is range-checked."""
    indices = []
    for piece in text.split(","):
        piece = piece.strip()
        try:
            v = core._decimal(piece)
        except ValueError:
            raise ValueError(f"invalid index {piece!r}: expected a positive integer") from None
        if v < 1:
            raise ValueError(f"invalid index {v}: indices are 1-based")
        indices.append(v)
    mask = 0
    for v in indices:
        if v > order:
            raise ValueError(f"{flag}: index {v} out of range for order {order}")
        mask |= 1 << (v - 1)
    return mask


def _integer(text: str, flag: str) -> int:
    """The value of an integer option, by the rule of the file header and the index lists."""
    try:
        return core._decimal(text)
    except ValueError:
        raise ValueError(f"{flag}: expected an integer, got {text!r}") from None


def _seconds(text: str) -> float:
    """The value of ``--time-budget``: ``_integer``'s rule, with at most one "." among the digits."""
    whole, _, fraction = text.partition(".")
    if text.isascii() and (whole.removeprefix("-") + fraction).isdigit():
        value = float(text)
        if abs(value) <= sys.float_info.max:  # float() reads a value past the largest float as inf
            return value
    raise ValueError(f"--time-budget: expected a decimal number of seconds, got {text!r}")


def _mask_to_indices(mask: int) -> list[int]:
    return [v + 1 for v in core.iter_members(mask)]


def _format_mask(mask: int) -> str:
    return " ".join(str(v) for v in _mask_to_indices(mask))


def _load(path: str) -> core.Tournament:
    """Parse the file's exact bytes, decoded as strict UTF-8: no newline translation, no locale."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as e:  # a ValueError, which main would report as a usage error
        raise core.FormatError(f"{path}: {e}") from None
    return core.parse(text)


# Each handler returns (exit code, JSON payload, text lines, --quiet lines);
# main alone prints.

def _cmd_verify(args):
    inst = counterexample.build_counterexample()
    report = counterexample.verify_claims(inst)
    payload = {
        "command": "verify-counterexample",
        "all_passed": report.all_passed,
        "claims": [
            {"id": c.claim_id, "description": c.description,
             "passed": c.passed, "details": c.details}
            for c in report.claims
        ],
        "notes": report.notes,
    }
    claim_lines = [f"{'PASS' if c.passed else 'FAIL'}  {c.claim_id}: {c.description}"
                   + (f" ({c.details})" if c.details else "")
                   for c in report.claims]
    verdict = "all claims pass" if report.all_passed else "SOME CLAIMS FAIL"
    count = f"{len(report.claims)} claims checked: {verdict}"
    failing = [line for line, c in zip(claim_lines, report.claims) if not c.passed]
    lines = claim_lines + [f"note: {note}" for note in report.notes] + [count]
    return (0 if report.all_passed else 1), payload, lines, failing + [count]


def _cmd_teq(args):
    t = _load(args.file)
    result = teq(t)
    return (0,
            {"command": "teq", "file": args.file, "order": t.order,
             "teq": _mask_to_indices(result)},
            [_format_mask(result)], [])


def _cmd_minimal_retentive(args):
    t = _load(args.file)
    sets = minimal_retentive_sets(t)
    return (0,
            {"command": "minimal-retentive", "file": args.file, "order": t.order,
             "minimal_retentive_sets": [_mask_to_indices(m) for m in sets]},
            [_format_mask(m) for m in sets], [])


def _cmd_retentive(args):
    t = _load(args.file)
    mask = _index_list_to_mask(args.set, t.order, "--set")
    result = is_retentive(TeqCache(t), mask)
    return (0 if result else 1,
            {"command": "retentive", "file": args.file,
             "set": _mask_to_indices(mask), "retentive": result},
            ["retentive" if result else "not retentive"], [])


def _cmd_dominators(args):
    alt = _integer(args.alt, "--alt")
    t = _load(args.file)
    if alt < 1:
        raise ValueError(f"--alt: index {alt} is 1-based")
    if alt > t.order:
        raise ValueError(f"--alt: index {alt} out of range for order {t.order}")
    if args.within is None:
        within = core.full_set(t.order)
    else:
        within = _index_list_to_mask(args.within, t.order, "--within")
    result = core.dominators(t, within, alt - 1)
    return (0,
            {"command": "dominators", "file": args.file, "alt": alt,
             "within": None if args.within is None else _mask_to_indices(within),
             "dominators": _mask_to_indices(result)},
            [_format_mask(result)], [])


def _cmd_isomorphic(args):
    a = _load(args.file_a)
    b = _load(args.file_b)
    witness = core.find_isomorphism(a, b)
    if witness is None:
        return (1, {"command": "isomorphic", "isomorphic": False, "mapping": None},
                ["not isomorphic"], [])
    mapping = [w + 1 for w in witness]
    return (0,
            {"command": "isomorphic", "isomorphic": True, "mapping": mapping},
            ["isomorphic: " + " ".join(f"{i + 1}->{w}" for i, w in enumerate(mapping))], [])


def _cmd_gen(args):
    order, seed = _integer(args.order, "--order"), _integer(args.seed, "--seed")
    text = core.serialize(core.random_tournament(order, seed))
    lines = text.splitlines()
    return (0,
            {"command": "gen", "order": order, "seed": seed, "tournament": text},
            lines, lines)


def _cmd_search(args):
    config = search.SearchConfig(order=_integer(args.order, "--order"),
                                 trials=_integer(args.trials, "--trials"),
                                 seed=_integer(args.seed, "--seed"), mode=args.mode,
                                 time_budget=None if args.time_budget is None else _seconds(args.time_budget),
                                 witness_cap=_integer(args.witness_cap, "--witness-cap"))
    # a bad value is a usage error, and an unusable directory fails before any trial runs
    config.validate()
    out_dir = None if args.witness_dir is None else Path(args.witness_dir)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    report = search.search_random(config)
    witness_files = []
    if out_dir is not None:
        for k, text in enumerate(report.witnesses):
            path = out_dir / f"witness_{k:03d}.txt"
            path.write_text(text)
            witness_files.append(str(path))
    payload = report.to_dict()
    payload["command"] = "search"
    payload["witness_files"] = witness_files
    lines = [
        f"order {report.order}  mode {report.mode}  trials {report.trials}  seed {report.seed}",
        f"found {report.found} tournaments with >= 2 minimal retentive sets",
        f"timed out: {report.timed_out}",
        f"total time: {report.total_seconds:.2f}s  (max trial {report.max_trial_seconds * 1000:.1f} ms)",
    ] + [f"witness written: {path}" for path in witness_files]
    return 0, payload, lines, [f"found {report.found} / {report.trials}"]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach main's one error line instead of exiting.

    Subparsers are built from the class of their parent, so they raise too.
    """

    def error(self, message):
        raise ValueError(message)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable JSON output")
    common.add_argument("--quiet", action="store_true", help="suppress non-essential output")

    parser = _Parser(
        prog=PROG,
        description="Tournament equilibrium set computations, retentive sets, "
                    "the embedded order-24 two-minimal-sets instance, and a seeded search harness. "
                    "All indices are 1-based.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-counterexample", parents=[common],
                       help="recheck every claimed property of the embedded order-24 instance")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("teq", parents=[common], help="compute the tournament equilibrium set")
    p.add_argument("file", help="tournament file")
    p.set_defaults(func=_cmd_teq)

    p = sub.add_parser("minimal-retentive", parents=[common],
                       help="list all inclusion-minimal TEQ-retentive sets")
    p.add_argument("file", help="tournament file")
    p.set_defaults(func=_cmd_minimal_retentive)

    p = sub.add_parser("retentive", parents=[common],
                       help="test whether a set is TEQ-retentive (exit 0 yes, 1 no)")
    p.add_argument("file", help="tournament file")
    p.add_argument("--set", required=True, help="comma-separated 1-based indices")
    p.set_defaults(func=_cmd_retentive)

    p = sub.add_parser("dominators", parents=[common], help="list the dominators of an alternative")
    p.add_argument("file", help="tournament file")
    p.add_argument("--alt", required=True, help="alternative (1-based)")
    p.add_argument("--within", help="restrict to these alternatives (comma-separated, 1-based)")
    p.set_defaults(func=_cmd_dominators)

    p = sub.add_parser("isomorphic", parents=[common],
                       help="test two tournaments for isomorphism (exit 0 yes, 1 no)")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.set_defaults(func=_cmd_isomorphic)

    p = sub.add_parser("gen", parents=[common], help="generate a seeded random tournament")
    p.add_argument("--order", required=True)
    p.add_argument("--seed", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("search", parents=[common],
                       help="search random tournaments for multiple minimal retentive sets")
    p.add_argument("--order", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--seed", required=True)
    p.add_argument("--mode", default="uniform", help=f"one of {', '.join(search.MODES)} (default uniform)")
    p.add_argument("--time-budget", default=None,
                   help="seconds per trial (ASCII digits, an optional leading '-', at most one '.'); "
                        "timed-out trials are counted, not findings")
    p.add_argument("--witness-cap", default=str(search.DEFAULT_WITNESS_CAP),
                   help="max witnesses kept in the report")
    p.add_argument("--witness-dir", default=None,
                   help="directory to write witness tournament files into")
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code, payload, lines, quiet_lines = args.func(args)
        if args.json:
            print(json.dumps(payload, indent=2))
        else:
            for line in quiet_lines if args.quiet else lines:
                print(line)
        return code
    except (core.FormatError, OSError) as e:  # before ValueError: FormatError is one
        print(f"{PROG}: error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"{PROG}: error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
