"""Command line interface.

Five subcommands: ``repcheck``, ``orbit``, ``basis``, ``object`` and
``selftest``.  Descriptor files are JSON; small values (an element, a
point) can be passed inline or as ``@path``.  Exit code 0 means every
check passed, 1 means some check failed, 2 means the input was bad.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .bases import (
    active_coordinates_check,
    active_transform,
    change_of_basis,
    coordinate_representation_check,
    gram_schmidt,
    is_g_basis,
    passive_transform,
    standard_coordinates,
    transport_check,
)
from .descriptors import (
    basis_from_descriptor,
    element_from_descriptor,
    gram_schmidt_input_from_descriptor,
    group_from_descriptor,
    inline_json,
    load_json,
    object_from_descriptor,
    point_from_descriptor,
    representation_from_descriptor,
)
from .errors import (
    BasiskitError,
    DependentInput,
    EnumerationCapExceeded,
    InfeasibleExhaustive,
    MembershipError,
    NotInOrbit,
    NullVector,
    ParseError,
)
from .groups import DEFAULT_CLOSURE_CAP
from .objects import (
    invariance_check,
    invariance_sweep,
    object_representation,
    representative,
    transform_object,
    vector_space_axioms_check,
)
from .reports import RunReport
from .representations import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    Verdict,
    check_laws,
    classify,
    inverse_law_check,
    orbit,
    orbit_closure_check,
    orbit_well_defined_check,
    variance_claim_check,
)
from .scalars import DEFAULT_TOLERANCE, EXACT, approx
from .selftest import run_selftest

__all__ = ["main"]

# Four ulps of 1.0.  Two float computations of one unit-sized element,
# each rounded a few times, can already differ by this much; below it they
# no longer compare as equal, and a float closure of a finite rotation
# group never closes.
MIN_TOLERANCE = 4 * sys.float_info.epsilon


def _inline_or_file(value: str):
    return load_json(value[1:]) if value.startswith("@") else inline_json(value)


def _backend_override(args):
    if getattr(args, "exact", False):
        return EXACT
    if getattr(args, "approx", False):
        return approx(args.tolerance)
    return None


def _add_common(p, backend=True, sample=False, samples=None, cap=False):
    """Declare the options the subcommands share, each in this one place;
    ``samples``, a command's ``--samples`` default, also adds ``--seed``."""
    if backend:
        mode = p.add_mutually_exclusive_group()
        mode.add_argument(
            "--exact", action="store_true", help="force the exact rational backend"
        )
        mode.add_argument(
            "--approx", action="store_true", help="force the float backend"
        )
    p.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="comparison tolerance for the float backend (default 1e-9)",
    )
    if sample:
        p.add_argument(
            "--sample",
            choices=["auto", "exhaustive", "sampled"],
            default="auto",
            help="work plan for the law checks (default auto)",
        )
    if samples is not None:
        p.add_argument("--samples", type=int, default=samples)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    if cap:
        p.add_argument(
            "--cap",
            type=int,
            default=DEFAULT_CLOSURE_CAP,
            help="enumeration cap for closures and orbits",
        )
    p.add_argument("--report", choices=["text", "json"], default="text")


def _settings_echo(args) -> dict:
    """The flags that shaped this run, echoed for reproducibility."""
    backend = _backend_override(args)
    settings = {"backend": "default" if backend is None else backend.kind}
    for key in ("tolerance", "sample", "samples", "seed", "cap"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _emit(report: RunReport, args) -> int:
    report.data["settings"] = _settings_echo(args)
    if args.report == "json":
        sys.stdout.write(report.to_json())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.passed else 1


def _representation(args):
    """The representation of ``--input``, on the backend the flags force."""
    return representation_from_descriptor(
        load_json(args.input), _backend_override(args), args.tolerance, args.cap
    )


def _read(args, parse, path):
    """``parse`` of the descriptor at ``path``, on the backend the flags force."""
    return parse(load_json(path), _backend_override(args), args.tolerance)


def _group(args, backend):
    """The group of ``--group``, on ``backend`` unless that is ``None``."""
    cap = getattr(args, "cap", DEFAULT_CLOSURE_CAP)
    return group_from_descriptor(load_json(args.group), backend, args.tolerance, cap)


def _cmd_repcheck(args) -> int:
    rep = _representation(args)
    report = RunReport("repcheck")
    plan = (args.sample, args.samples, args.seed)
    axioms, variance = check_laws(rep, *plan)
    report.add_verdict("axioms", axioms)
    report.add_verdict("inverse-law", inverse_law_check(rep, *plan))
    report.add_verdict("variance", variance_claim_check(rep.variance_claim, variance))
    try:
        summary = classify(rep)
        report.data["classification"] = {
            "side": rep.side,
            "variance": variance.verdict,
            "kernel_size": len(summary.kernel),
            "effective": summary.effective,
            "transitive": summary.transitive,
            "single_transitive": summary.single_transitive,
            "uniqueness_agrees": summary.uniqueness_agrees,
        }
    except BasiskitError as exc:
        report.data["classification"] = f"not classified: {exc}"
    return _emit(report, args)


def _cmd_orbit(args) -> int:
    rep = _representation(args)
    report = RunReport("orbit")
    if args.point is not None:
        point = point_from_descriptor(_inline_or_file(args.point), rep.carrier)
        result = orbit(rep, point, cap=args.cap)
        report.data["base"] = point
        report.data["size"] = len(result.points)
        report.data["points"] = list(result.points)
        report.data["witnesses"] = [
            {"point": p, "element": g} for p, g in result.witnesses
        ]
    try:
        partition = orbit_well_defined_check(rep)
    except InfeasibleExhaustive as exc:
        if args.point is None:
            raise
        report.data["partition"] = f"not checked: {exc}"
    else:
        report.add_verdict("orbit-partition", partition)
        report.data["orbit_count"] = len(partition.orbits)
        report.data["orbit_sizes"] = [len(points) for points in partition.orbits]
    return _emit(report, args)


def _cmd_basis(args) -> int:
    report = RunReport(f"basis {args.action}")
    if args.action == "transform":
        b = _read(args, basis_from_descriptor, args.input)
        group = _group(args, b.space.backend)
        g = element_from_descriptor(_inline_or_file(args.element), group)
        mover = active_transform if args.mode == "active" else passive_transform
        moved = mover(b, g)
        report.data["input"] = b
        report.data["element"] = g
        report.data["mode"] = args.mode
        report.data["result"] = moved
        if args.mode == "active":
            # moving the vectors and the basis together must leave every
            # displacement's components alone
            report.add_verdict("coordinates-preserved", active_coordinates_check(b, g, moved))
    elif args.action == "change":
        b1 = _read(args, basis_from_descriptor, args.source)
        b2 = _read(args, basis_from_descriptor, args.target)
        group = _group(args, b1.space.backend)
        try:
            a = change_of_basis(b1, b2, group)
        except NotInOrbit as exc:
            report.add_verdict("connected", Verdict(False, detail=str(exc)))
            return _emit(report, args)
        report.add_verdict("connected", Verdict(True))
        report.add_verdict("transport-verified", transport_check(b1, b2, a))
        report.data["element"] = a
    elif args.action == "gram-schmidt":
        vectors, signature = gram_schmidt_input_from_descriptor(load_json(args.input))
        try:
            result = gram_schmidt(vectors, signature, args.tolerance)
        except (DependentInput, NullVector) as exc:
            detail = f"{type(exc).__name__} at input index {exc.index}"
            report.add_verdict("orthonormalised", Verdict(False, detail=detail))
            return _emit(report, args)
        report.add_verdict("orthonormalised", is_g_basis(result))
        report.data["result"] = result
    elif args.action == "standard-coords":
        b = _read(args, basis_from_descriptor, args.input)
        ref = _read(args, basis_from_descriptor, args.reference)
        sc = standard_coordinates(b, ref)
        report.data["grid"] = sc.grid
        report.data["identity"] = sc.is_identity()
    else:  # coordrep
        group = _group(args, _backend_override(args))
        result = coordinate_representation_check(
            group, samples=args.samples, seed=args.seed
        )
        report.add_verdict("coordinate-composition", result.composition)
        report.add_verdict("coordinate-effectiveness", result.effectiveness)
    return _emit(report, args)


def _cmd_object(args) -> int:
    obj = _read(args, object_from_descriptor, args.input)
    report = RunReport("object")
    report.data["object"] = obj
    before = representative(obj)
    report.data["representative"] = list(before)
    group = None
    if args.group is not None:
        group = _group(args, obj.anchor.space.backend)
        if group.store is None and args.element is None and not (args.axioms or args.orbit):
            raise ParseError(
                "--group without stored elements checks nothing: "
                "give --element or --axioms"
            )
    if args.element is not None:
        if group is None:
            raise ParseError("--element needs --group for context")
        g = element_from_descriptor(_inline_or_file(args.element), group)
        moved = transform_object(obj, g)
        after = representative(moved)
        report.data["result"] = moved
        report.data["result_representative"] = list(after)
        report.add_verdict("invariance", invariance_check(obj, g, before, after))
    elif group is not None and group.store is not None:
        verdict, mean = invariance_sweep((obj, g, before, None) for g in group.store)
        report.add_verdict("invariance", verdict)
        if verdict.residual_max is not None:
            report.data["residuals"] = {"max": verdict.residual_max, "mean": mean}
    if args.axioms:
        if group is None:
            raise ParseError("--axioms needs --group for sampling elements")
        report.add_verdict(
            "vector-space-axioms",
            vector_space_axioms_check(
                obj.functor, obj.anchor, group, samples=args.samples, seed=args.seed
            ),
        )
    if args.orbit:
        if group is None or group.store is None:
            raise ParseError("--orbit needs --group with stored elements")
        rep = object_representation(obj, group)
        result = orbit(rep, obj, cap=args.cap)
        report.add_verdict("orbit-well-defined", orbit_closure_check(rep, result))
        report.data["orbit_size"] = len(result.points)
        report.data["orbit"] = list(result.points)
    return _emit(report, args)


def _cmd_selftest(args) -> int:
    report = run_selftest(seed=args.seed, samples=args.samples, tolerance=args.tolerance)
    return _emit(report, args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="basiskit",
        description="Checks for group representations, bases and geometrical objects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("repcheck", help="verify representation laws from a descriptor")
    p.add_argument("--input", required=True, help="representation descriptor path")
    _add_common(p, sample=True, samples=DEFAULT_SAMPLES, cap=True)
    p.set_defaults(func=_cmd_repcheck)

    p = sub.add_parser("orbit", help="orbits and the partition property")
    p.add_argument("--input", required=True, help="representation descriptor path")
    p.add_argument("--point", help="carrier point, inline JSON or @path")
    _add_common(p, cap=True)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("basis", help="basis transformations and checks")
    p.set_defaults(func=_cmd_basis)
    basis_sub = p.add_subparsers(dest="action", required=True)

    q = basis_sub.add_parser("transform", help="move a basis by a group element")
    q.add_argument("--input", required=True, help="basis descriptor path")
    q.add_argument("--group", required=True, help="group descriptor path")
    q.add_argument("--element", required=True, help="element, inline JSON or @path")
    q.add_argument("--mode", choices=["active", "passive"], default="passive")
    _add_common(q)

    q = basis_sub.add_parser("change", help="solve for the element joining two bases")
    q.add_argument("--source", required=True, help="starting basis descriptor path")
    q.add_argument("--target", required=True, help="target basis descriptor path")
    q.add_argument("--group", required=True, help="group descriptor path")
    _add_common(q)

    q = basis_sub.add_parser(
        "gram-schmidt", help="orthonormalise vectors against a diagonal metric"
    )
    q.add_argument(
        "--input",
        required=True,
        help="path to JSON with 'signature' and 'vectors'",
    )
    _add_common(q, backend=False)

    q = basis_sub.add_parser(
        "standard-coords", help="coordinates of a basis against a reference"
    )
    q.add_argument("--input", required=True, help="basis descriptor path")
    q.add_argument("--reference", required=True, help="reference basis descriptor path")
    _add_common(q)

    q = basis_sub.add_parser(
        "coordrep", help="coordinate transformation behaves as a representation"
    )
    q.add_argument("--group", required=True, help="group descriptor path")
    _add_common(q, samples=100, cap=True)

    p = sub.add_parser("object", help="transform objects and check invariance")
    p.add_argument("--input", required=True, help="object descriptor path")
    p.add_argument("--group", help="group descriptor path")
    p.add_argument("--element", help="element, inline JSON or @path")
    p.add_argument("--orbit", action="store_true", help="list the object's orbit")
    p.add_argument(
        "--axioms",
        action="store_true",
        help="check the vector space laws at this object's anchor",
    )
    _add_common(p, samples=DEFAULT_SAMPLES, cap=True)
    p.set_defaults(func=_cmd_object)

    p = sub.add_parser("selftest", help="run the built-in deterministic battery")
    _add_common(p, backend=False, samples=60)
    p.set_defaults(func=_cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of :func:`main` and reused.

    ``parse_args`` fills a fresh namespace on every call, so nothing from
    one call reaches the next.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for name in ("samples", "cap"):
            if getattr(args, name, 1) < 1:
                raise ParseError(f"--{name} must be at least 1, got {getattr(args, name)}")
        tolerance = args.tolerance
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise ParseError(
                f"--tolerance must be a positive finite number, got {tolerance}"
            )
        if tolerance < MIN_TOLERANCE:
            raise ParseError(
                f"--tolerance must be at least {MIN_TOLERANCE} (four ulps of 1.0), "
                f"got {tolerance}"
            )
        return args.func(args)
    except (ParseError, MembershipError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnumerationCapExceeded as exc:
        # the inputs were fine, the work ran over its declared budget
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BasiskitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
