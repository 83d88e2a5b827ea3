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
    ClosureBudgetExceeded,
    InconsistentStage,
    InvalidInput,
    InvariantViolation,
    LinvexError,
    NotReturning,
    PartitionBlowup,
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
EXIT_BUDGET = 3
EXIT_VIOLATION = 4

_BUDGET_ERRORS = (BudgetExceeded, ClosureBudgetExceeded, NotReturning, PartitionBlowup)


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
        payload["proxy_irreducible"] = genperm.is_dynamically_irreducible(
            perm, budget=args.budget
        )
    _emit(payload)
    _write_artifact(args.out, payload)
    return EXIT_OK


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
    _emit(payload)
    _write_artifact(args.out, payload)
    return EXIT_OK


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
    _emit(payload)
    _write_artifact(args.out, payload)
    if not equal:
        raise InvariantViolation("orbit visit counts disagree with the cocycle matrix")
    return EXIT_OK


def _cmd_diagram(args) -> int:
    perm = _load_perm(args.perm)
    graph = diagram.forward_closure(perm, budget=args.budget)
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
    graph = diagram.forward_closure(perm, budget=args.budget)
    comps = diagram.attractors(graph)
    ids = {node: i for i, node in enumerate(graph.nodes)}
    payload = {
        "closure_nodes": graph.node_count,
        "attractors": [
            {"size": len(c), "members": sorted(ids[n] for n in c)} for c in comps
        ],
    }
    _emit(payload)
    _write_artifact(args.out, payload)
    return EXIT_OK


def _cmd_tower(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    tower = approx.find_cyclic_tower(x, parse_fraction(args.delta), budget=args.budget)
    report = approx.verify_tower(x, tower)
    payload = {**tower.to_json_dict(), "verification": report.to_json_dict()}
    _emit(payload)
    _write_artifact(args.out, payload)
    return EXIT_OK


def _side_from_json(value) -> Side:
    try:
        return Side(value)
    except ValueError:
        raise InvalidInput(f"tower base side {value!r} is neither 'Top' nor 'Bottom'") from None


def _json_int(data, key: str) -> int:
    """An integer field of a JSON object; a float, string or bool is
    InvalidInput rather than coerced."""
    value = data[key]
    if type(value) is not int:
        raise InvalidInput(f'"{key}" must be an integer, got {value!r}')
    return value


def _tower_from_json(data) -> approx.CyclicTower:
    try:
        if not isinstance(data["band"], str):
            raise InvalidInput(f'the tower band {data["band"]!r} is not a string')
        return approx.CyclicTower(
            band=data["band"],
            depth=_json_int(data, "depth"),
            height=_json_int(data, "height"),
            base=tuple(
                (
                    _side_from_json(item["side"]),
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
    report = approx.verify_tower(x, tower)
    payload = report.to_json_dict()
    _emit(payload)
    _write_artifact(args.out, payload)
    return EXIT_OK


def _cmd_rigidity(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    candidates = []
    for v in filter(str.strip, args.candidates.split(",")):
        try:
            candidates.append(int(v))
        except ValueError:
            raise InvalidInput(f"rigidity candidate {v.strip()!r} is not an integer") from None
    records = approx.find_rigidity_times(
        x, parse_fraction(args.xi), candidates, tower_budget=args.budget
    )
    payload = {"records": [r.to_json_dict() for r in records]}
    _emit(payload)
    _write_artifact(args.out, payload)
    return EXIT_OK


def _cmd_modp_trace(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    state = modp.initial_state(x.perm, args.p)
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
            if node.is_non_classical:
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
        x, parse_fraction(args.delta), args.p, budget=args.budget
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
    _emit(payload)
    _write_artifact(args.out, payload)
    return EXIT_OK


def _cmd_ergodicity(args) -> int:
    x = _load_exchange(args.perm, args.widths)
    report = lab.total_ergodicity_experiment(
        x, args.p, args.bins, args.iters, seed=args.seed, tower_budget=args.budget
    )
    _emit(report.to_json_dict())
    _write_report(args, report)
    return EXIT_OK


def _cmd_product(args) -> int:
    x1 = _load_exchange(args.perm1, args.widths1)
    x2 = _load_exchange(args.perm2, args.widths2)
    report = lab.product_experiment(x1, x2, args.boxes, args.iters, seed=args.seed)
    _emit(report.to_json_dict())
    _write_report(args, report)
    return EXIT_OK


def _cmd_scan(args) -> int:
    perm = _load_perm(args.perm)
    cfg = lab.SamplerConfig(
        perm=perm,
        denominator_bound=args.denominator_bound,
        seed=args.seed,
        count=args.count,
    )
    report = lab.rigidity_scan(cfg, parse_fraction(args.xi), args.horizon)
    _emit(report.to_json_dict())
    _write_report(args, report)
    return EXIT_OK


def _write_report(args, report: lab.ExperimentReport) -> None:
    if args.out:
        Path(args.out).write_bytes(report.to_json_bytes())
        Path(args.out).with_suffix(".csv").write_text(report.to_csv_text())


def _add_exchange_args(sub) -> None:
    sub.add_argument("--perm", required=True, help="permutation JSON file")
    sub.add_argument("--widths", required=True, help="widths JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linvex",
        description="Exact arithmetic for linear involutions without flips.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "seed": dict(type=int, default=0, help="seed"),
        "budget": dict(type=int, default=10_000, help="split or node budget"),
        "out": dict(default=None, help="artifact output path"),
    }

    def add_parser(name, *flags, **kwargs):
        """A subcommand taking only the shared flags its handler reads."""
        s = sub.add_parser(name, **kwargs)
        for flag in flags:
            s.add_argument(f"--{flag}", **shared[flag])
        return s

    s = add_parser("validate", "budget", "out", help="validate a permutation file")
    s.add_argument("--perm", required=True)
    s.add_argument("--check-closure", action="store_true")
    s.set_defaults(fn=_cmd_validate)

    s = add_parser("apply", help="apply the exchange to one point")
    _add_exchange_args(s)
    s.add_argument("--side", required=True, choices=["top", "bottom", "Top", "Bottom"])
    s.add_argument("--offset", required=True)
    s.add_argument("--inverse", action="store_true")
    s.set_defaults(fn=_cmd_apply)

    s = add_parser("orbit", "out", help="dump an orbit as JSON lines")
    _add_exchange_args(s)
    s.add_argument("--side", required=True, choices=["top", "bottom", "Top", "Bottom"])
    s.add_argument("--offset", required=True)
    s.add_argument("--steps", type=int, required=True)
    s.set_defaults(fn=_cmd_orbit)

    s = add_parser("split", "out", help="one induction step")
    _add_exchange_args(s)
    s.set_defaults(fn=_cmd_split)

    s = add_parser("expand", "out", help="iterate the induction, dump the stage")
    _add_exchange_args(s)
    s.add_argument("--steps", type=int, required=True)
    s.set_defaults(fn=_cmd_expand)

    s = add_parser("visits", "out", help="orbit count matrix vs cocycle matrix")
    _add_exchange_args(s)
    s.add_argument("--depth", type=int, required=True)
    s.set_defaults(fn=_cmd_visits)

    s = add_parser("diagram", "budget", "out", help="forward closure of a permutation")
    s.add_argument("--perm", required=True)
    s.set_defaults(fn=_cmd_diagram)

    s = add_parser("attractors", "budget", "out", help="attractors of the forward closure")
    s.add_argument("--perm", required=True)
    s.set_defaults(fn=_cmd_attractors)

    s = add_parser("tower", "budget", "out", help="find and verify a cyclic tower")
    _add_exchange_args(s)
    s.add_argument("--delta", required=True)
    s.set_defaults(fn=_cmd_tower)

    s = add_parser("verify-tower", "out", help="re-verify a tower certificate")
    _add_exchange_args(s)
    s.add_argument("--tower", required=True)
    s.set_defaults(fn=_cmd_verify_tower)

    s = add_parser("rigidity", "budget", "out", help="grade candidate rigidity times")
    _add_exchange_args(s)
    s.add_argument("--xi", required=True)
    s.add_argument("--candidates", default="")
    s.set_defaults(fn=_cmd_rigidity)

    s = add_parser("modp-trace", "out", help="remainder table along an expansion")
    _add_exchange_args(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--steps", type=int, required=True)
    s.set_defaults(fn=_cmd_modp_trace)

    s = add_parser("coprime-tower", "budget", "out", help="tower with height coprime to p")
    _add_exchange_args(s)
    s.add_argument("--delta", required=True)
    s.add_argument("--p", type=int, required=True)
    s.set_defaults(fn=_cmd_coprime_tower)

    s = add_parser("ergodicity", "seed", "budget", "out", help="total ergodicity evidence")
    _add_exchange_args(s)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--bins", type=int, default=100)
    s.add_argument("--iters", type=int, default=100_000)
    s.set_defaults(fn=_cmd_ergodicity)

    s = add_parser("product", "seed", "out", help="product equidistribution evidence")
    s.add_argument("--perm1", required=True)
    s.add_argument("--widths1", required=True)
    s.add_argument("--perm2", required=True)
    s.add_argument("--widths2", required=True)
    s.add_argument("--boxes", type=int, default=20)
    s.add_argument("--iters", type=int, default=100_000)
    s.set_defaults(fn=_cmd_product)

    s = add_parser("scan", "seed", "out", help="rigidity time density scan")
    s.add_argument("--perm", required=True)
    s.add_argument("--count", type=int, default=10)
    s.add_argument("--denominator-bound", type=int, default=lab.DEFAULT_DENOMINATOR_BOUND)
    s.add_argument("--xi", required=True)
    s.add_argument("--horizon", type=int, default=10)
    s.set_defaults(fn=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InvariantViolation, InconsistentStage) as err:
        sys.stderr.write(f"INVARIANT VIOLATION: {err}\n")
        return EXIT_VIOLATION
    except _BUDGET_ERRORS as err:
        sys.stderr.write(f"budget exhausted: {err}\n")
        return EXIT_BUDGET
    except (LinvexError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
