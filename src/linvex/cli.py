"""Command-line surface.

Exit codes: 0 success, 1 domain errors, 2 usage errors, 3 budget
exhaustion, 4 falsified mathematical invariants (so CI can tell a
possible bug or counterexample from an operational failure).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import approx, diagram, genperm, lab, modp, rauzy
from .errors import (
    BudgetExceeded,
    InconsistentStage,
    InvalidInput,
    InvariantViolation,
    LinvexError,
    SplitUndefined,
)
from .exchange import Exchange, Point, Side
from .rationals import (
    canonical_json_bytes,
    parse_fraction,
    widths_from_json,
    widths_to_json,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3
EXIT_VIOLATION = 4


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise InvalidInput(f"{path} is not a JSON file: {err}") from None


def _load_perm(path: str) -> genperm.GeneralizedPermutation:
    return genperm.from_json_dict(_load_json(path))


def _load_exchange(perm_path: str, widths_path: str) -> Exchange:
    return Exchange(_load_perm(perm_path), widths_from_json(_load_json(widths_path)))


def _write_artifact(path: str | None, payload) -> None:
    if path is not None:
        Path(path).write_bytes(canonical_json_bytes(payload))


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _publish(args, payload) -> int:
    """Print ``payload``, write it to ``--out`` if given, and succeed."""
    _emit(payload)
    _write_artifact(args.out, payload)
    return EXIT_OK


def _budget(args, keyword: str) -> dict:
    """``{keyword: --budget}`` when the flag is given, else nothing, so
    the library's default for the limit the command spends applies."""
    return {} if args.budget is None else {keyword: args.budget}


def _point_from_args(args) -> Point:
    side = Side.TOP if args.side.lower() == "top" else Side.BOTTOM
    return Point(side, parse_fraction(args.offset))


def _cmd_validate(args) -> int:
    perm = _load_perm(args.perm)
    payload = {
        **perm.to_json_dict(),
        "bands": perm.band_count,
        "classes": {a: perm.orientation_of(a).value for a in perm.alphabet},
        "classical": perm.is_classical,
        "non_classical": perm.is_non_classical,
        "critical": list(genperm.critical_bands(perm)),
        "combinatorially_reducible": genperm.is_combinatorially_reducible(perm),
    }
    if args.check_closure:
        payload["proxy_irreducible"] = diagram.is_dynamically_irreducible(
            perm, **_budget(args, "budget")
        )
    return _publish(args, payload)


def _cmd_apply(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    point = _point_from_args(args)
    image = x.apply_inverse(point) if args.inverse else x.apply(point)
    _emit(image.to_json_dict())
    return EXIT_OK


def _cmd_orbit(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    segment = x.orbit(_point_from_args(args), args.steps)
    lines = [
        json.dumps({"k": k, **p.to_json_dict()}, sort_keys=True, separators=(",", ":"))
        for k, p in enumerate(segment.points)
    ]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if segment.hit_endpoint is not None:
        sys.stderr.write(f"orbit stopped: endpoint hit at index {segment.hit_endpoint}\n")
    return EXIT_OK


def _cmd_split(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    induced, step = rauzy.split(x)
    payload = {
        "step": step.to_json_dict(),
        "permutation": induced.perm.to_json_dict(),
        "widths": widths_to_json(induced.widths),
    }
    return _publish(args, payload)


def _cmd_expand(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    stage = rauzy.expand(x, args.steps)
    payload = stage.to_json_dict()
    payload["widths_at"] = widths_to_json(rauzy.widths_at(stage, x))
    _emit({"depth": stage.depth, "halted": payload["halted"]})
    _write_artifact(args.out, payload)
    return EXIT_OK


def _cmd_visits(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    stage = rauzy.expand(x, args.depth)
    counts = rauzy.visit_counts(x, stage)
    equal = counts == stage.matrix
    payload = {
        "depth": args.depth,
        "orbit_counts": counts.to_json_rows(),
        "cocycle": stage.matrix.to_json_rows(),
        "labels": list(counts.labels),
        "verdict": "EQUAL" if equal else "UNEQUAL",
    }
    _publish(args, payload)
    if not equal:
        raise InvariantViolation("orbit visit counts disagree with the cocycle matrix")
    return EXIT_OK


def _cmd_diagram(args) -> int:
    perm = _load_perm(args.perm)
    graph = diagram.forward_closure(perm, **_budget(args, "budget"))
    payload = graph.to_json_dict()
    _emit(
        {
            "nodes": graph.node_count,
            "reducible_nodes": len(graph.reducible_nodes()),
            "stuck_nodes": len(graph.stuck_nodes()),
        }
    )
    _write_artifact(args.out, payload)
    return EXIT_OK


def _cmd_attractors(args) -> int:
    perm = _load_perm(args.perm)
    graph = diagram.forward_closure(perm, **_budget(args, "budget"))
    comps = diagram.attractors(graph)
    ids = {node: i for i, node in enumerate(graph.nodes)}
    payload = {
        "closure_nodes": graph.node_count,
        "attractors": [
            {"size": len(c), "members": sorted(ids[n] for n in c)} for c in comps
        ],
    }
    return _publish(args, payload)


def _cmd_tower(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    tower = approx.find_cyclic_tower(x, parse_fraction(args.delta), **_budget(args, "budget"))
    report = approx.verify_tower(x, tower)
    return _publish(args, {**tower.to_json_dict(), "verification": report.to_json_dict()})


def _tower_from_json(data) -> approx.CyclicTower:
    try:
        return approx.CyclicTower(
            band=data["band"],
            depth=data["depth"],
            height=data["height"],
            base=tuple(
                (
                    Side(item["side"]),
                    parse_fraction(item["lo"]),
                    parse_fraction(item["hi"]),
                )
                for item in data["base_intervals"]
            ),
            delta=parse_fraction(data["delta"]),
            xi=parse_fraction(data["xi"]),
        )
    except KeyError as err:
        raise InvalidInput(f"tower certificate lacks the key {err}") from None
    except (TypeError, ValueError) as err:
        raise InvalidInput(f"malformed tower certificate: {err}") from None


def _cmd_verify_tower(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    tower = _tower_from_json(_load_json(args.tower))
    return _publish(args, approx.verify_tower(x, tower).to_json_dict())


def _cmd_rigidity(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    candidates = []
    for v in filter(str.strip, args.candidates.split(",")):
        try:
            candidates.append(int(v))
        except ValueError:
            raise InvalidInput(f"rigidity candidate {v.strip()!r} is not an integer") from None
    records = approx.find_rigidity_times(
        x, parse_fraction(args.xi), candidates, **_budget(args, "tower_budget")
    )
    return _publish(args, {"records": [r.to_json_dict() for r in records]})


def _cmd_modp_trace(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    state = modp.initial_state(x.perm, args.p)
    obstruction = modp.structural_obstruction(x.perm, args.p)
    if obstruction is not None:
        sys.stderr.write(f"structural obstruction: {obstruction.reason}\n")
    rows = []
    violation = None
    try:
        for depth, (node, _, norms, step) in enumerate(rauzy._walk(x, args.steps)):
            if step is not None:
                state = modp.propagate(state, step.winner, step.loser, node)
            for band in node.alphabet:
                rows.append(
                    {
                        "depth": depth,
                        "band": band,
                        "class": node.orientation_of(band).value,
                        "column_norm": norms[band],
                        "remainder": state.remainder(band),
                    }
                )
            if node.is_non_classical and obstruction is None and violation is None:
                status = modp.check_claim_invariant(state)
                if isinstance(status, modp.ClaimViolation):
                    violation = depth
    except SplitUndefined:
        pass  # the trace ends where the expansion halts
    header = f"{'depth':>5} {'band':>6} {'class':>16} {'|Q(a)|':>12} {'r':>4}"
    sys.stdout.write(header + "\n")
    for row in rows:
        sys.stdout.write(
            f"{row['depth']:>5} {row['band']:>6} {row['class']:>16} "
            f"{row['column_norm']:>12} {row['remainder']:>4}\n"
        )
    _write_artifact(args.out, {"rows": rows, "violation_depth": violation})
    if violation is not None:
        raise InvariantViolation(
            f"remainder invariant violated at depth {violation} for p={args.p}"
        )
    return EXIT_OK


def _cmd_coprime_tower(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    result = modp.find_coprime_tower(
        x, parse_fraction(args.delta), args.p, **_budget(args, "budget")
    )
    if isinstance(result, modp.StructuralObstruction):
        payload = {"outcome": "structural_obstruction", "reason": result.reason}
    else:
        report = approx.verify_tower(x, result)
        payload = {
            "outcome": "tower",
            **result.to_json_dict(),
            "verification": report.to_json_dict(),
        }
    return _publish(args, payload)


def _cmd_ergodicity(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    report = lab.total_ergodicity_experiment(
        x, args.p, args.bins, args.iters, seed=args.seed, **_budget(args, "tower_budget")
    )
    return _publish_report(args, report)


def _cmd_product(args) -> int:
    x1 = _load_exchange(args.perm1, args.widths1)
    x2 = _load_exchange(args.perm2, args.widths2)
    report = lab.product_experiment(x1, x2, args.boxes, args.iters, seed=args.seed)
    return _publish_report(args, report)


def _cmd_scan(args) -> int:
    perm = _load_perm(args.perm)
    cfg = lab.SamplerConfig(
        perm=perm,
        denominator_bound=args.denominator_bound,
        seed=args.seed,
        count=args.count,
    )
    report = lab.rigidity_scan(cfg, parse_fraction(args.xi), args.horizon)
    return _publish_report(args, report)


def _publish_report(args, report: lab.ExperimentReport) -> int:
    """Print ``report``; with ``--out``, write its JSON there and its CSV beside it."""
    _emit(report.to_json_dict())
    if args.out:
        Path(args.out).write_bytes(report.to_json_bytes())
        Path(args.out).with_suffix(".csv").write_text(report.to_csv_text())
    return EXIT_OK


# Each flag's argparse keywords, declared once.
_FLAGS = {
    "seed": dict(type=int, default=0, help="seed"),
    "budget": dict(type=int, help="split or node budget (default: the library's)"),
    "out": dict(help="artifact output path"),
    "perm": dict(required=True, help="permutation JSON file"),
    "widths": dict(required=True, help="widths JSON file"),
    "check-closure": dict(action="store_true"),
    "side": dict(required=True, choices=["top", "bottom", "Top", "Bottom"]),
    "offset": dict(required=True),
    "inverse": dict(action="store_true"),
    "steps": dict(type=int, required=True),
    "depth": dict(type=int, required=True),
    "delta": dict(required=True),
    "tower": dict(required=True),
    "xi": dict(required=True),
    "candidates": dict(default=""),
    "p": dict(type=int, required=True),
    "bins": dict(type=int, default=100),
    "iters": dict(type=int, default=100_000),
    "perm1": dict(required=True),
    "widths1": dict(required=True),
    "perm2": dict(required=True),
    "widths2": dict(required=True),
    "boxes": dict(type=int, default=20),
    "count": dict(type=int, default=10),
    "denominator-bound": dict(type=int, default=lab.DEFAULT_DENOMINATOR_BOUND),
    "horizon": dict(type=int, default=10),
}

# Each subcommand: its handler, its help and its flags in --help order.
# A subcommand takes only the shared flags (seed, budget, out) it reads.
_COMMANDS = {
    "validate": (_cmd_validate, "validate a permutation file", "budget out perm check-closure"),
    "apply": (_cmd_apply, "apply the exchange to one point", "perm widths side offset inverse"),
    "orbit": (_cmd_orbit, "dump an orbit as JSON lines", "out perm widths side offset steps"),
    "split": (_cmd_split, "one induction step", "out perm widths"),
    "expand": (_cmd_expand, "iterate the induction, dump the stage", "out perm widths steps"),
    "visits": (_cmd_visits, "orbit count matrix vs cocycle matrix", "out perm widths depth"),
    "diagram": (_cmd_diagram, "forward closure of a permutation", "budget out perm"),
    "attractors": (_cmd_attractors, "attractors of the forward closure", "budget out perm"),
    "tower": (_cmd_tower, "find and verify a cyclic tower", "budget out perm widths delta"),
    "verify-tower": (_cmd_verify_tower, "re-verify a tower certificate", "out perm widths tower"),
    "rigidity": (
        _cmd_rigidity, "grade candidate rigidity times", "budget out perm widths xi candidates"
    ),
    "modp-trace": (
        _cmd_modp_trace, "remainder table along an expansion", "out perm widths p steps"
    ),
    "coprime-tower": (
        _cmd_coprime_tower, "tower with height coprime to p", "budget out perm widths delta p"
    ),
    "ergodicity": (
        _cmd_ergodicity, "total ergodicity evidence", "seed budget out perm widths p bins iters"
    ),
    "product": (
        _cmd_product,
        "product equidistribution evidence",
        "seed out perm1 widths1 perm2 widths2 boxes iters",
    ),
    "scan": (
        _cmd_scan, "rigidity time density scan", "seed out perm count denominator-bound xi horizon"
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linvex",
        description="Exact arithmetic for linear involutions without flips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, text, flags) in _COMMANDS.items():
        s = sub.add_parser(name, help=text)
        for flag in flags.split():
            s.add_argument(f"--{flag}", **_FLAGS[flag])
        s.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvariantViolation, InconsistentStage) as err:
        sys.stderr.write(f"INVARIANT VIOLATION: {err}\n")
        return EXIT_VIOLATION
    except BudgetExceeded as err:
        sys.stderr.write(f"budget exhausted: {err}\n")
        return EXIT_EXHAUSTED
    except (LinvexError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
