"""Batch command-line front end.

Subcommands: ``phi`` (single evaluation), ``verify`` (one identity
instance, reduced path plus optional QMC), ``constants`` (the Euler-gamma
and ln(4/pi) integrals) and ``reduce`` (inspect the 1-D reduction of a
spec).  Standard output is a single JSON document in json mode, including
on error paths; exit codes carry pass/fail:

    0  success / verification passed
    1  verification or constant outside tolerance
    2  domain, degeneracy or argument errors
    3  convergence failure

Complex literals parse as ``a``, ``ai``, ``a+bi`` or ``a-bi`` with decimal
reals.  Spec files for ``reduce`` are JSON objects
{"m":…, "family":…, "exponents":[…], "z":…, "s":…} with complex entries
either as numbers (real) or {"re":…, "im":…} objects.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .constants import euler_gamma_via_integral, ln4_over_pi_via_integral
from .errors import ConvergenceError, DomainError, EvaluationError
from .identities import verify
from .lerch import LerchArgs, phi
from .qmc import PASS_SIGMA, QmcOptions, sigma_gap
from .quad1d import KernelTerm, reduced_eval
from .simplex import (
    FAMILY_DISTINCT,
    FAMILY_F_KERNEL,
    FAMILY_SYMMETRIC,
    FAMILY_THEOREM4,
    IntegrandSpec,
    ReducedIntegrand,
    reduce,
)

SEED_ENV_VAR = "LERCHINT_SEED"

_THEOREM_TO_FAMILY = {
    "t3-pair": FAMILY_F_KERNEL,
    "t3-sym": FAMILY_SYMMETRIC,
    "t4": FAMILY_THEOREM4,
    "t5": FAMILY_DISTINCT,
}

_MAX_US = 20

_NUM = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^({_NUM})$")
_RE_IMAG = re.compile(rf"^({_NUM})i$")
_RE_BOTH = re.compile(rf"^({_NUM})([+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$")


def parse_complex(text: str) -> complex:
    text = text.strip().replace(" ", "")
    m = _RE_REAL.match(text)
    if m:
        return complex(float(m.group(1)), 0.0)
    m = _RE_IMAG.match(text)
    if m:
        return complex(0.0, float(m.group(1)))
    m = _RE_BOTH.match(text)
    if m:
        return complex(float(m.group(1)), float(m.group(2)))
    raise DomainError(f"cannot parse complex literal {text!r} (use a, ai, a+bi or a-bi)")


def _cplx_out(c: complex) -> dict:
    return {"re": c.real, "im": c.imag}


def _cplx_in(obj) -> complex:
    if isinstance(obj, dict):
        return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, str):
        return parse_complex(obj)
    raise DomainError(f"cannot interpret {obj!r} as a complex number")


def _default_seed() -> int:
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from exc
    return 1


def _check_tol(tol: float) -> float:
    if not 1e-14 <= tol <= 1e-2:
        raise DomainError(f"tol must lie in [1e-14, 1e-2], got {tol}")
    return tol


def _add_qmc_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--qmc-points", type=int, default=QmcOptions.points)
    parser.add_argument("--qmc-replicates", type=int, default=QmcOptions.replicates)
    parser.add_argument("--seed", type=int, default=None)


def _qmc_options(args: argparse.Namespace) -> QmcOptions:
    """QmcOptions from the flags of ``_add_qmc_flags``, with the points checked."""
    points = args.qmc_points
    if points < 256 or points > 4194304 or points & (points - 1) != 0:
        raise DomainError(f"points must be a power of two in [2^8, 2^22], got {points}")
    return QmcOptions(points=points, replicates=args.qmc_replicates, seed=args.seed)


def _emit(payload: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in _text_lines(payload):
            print(line)


def _text_lines(payload: dict, prefix: str = "") -> list[str]:
    lines = []
    for key, value in payload.items():
        if isinstance(value, dict):
            if set(value) == {"re", "im"}:
                lines.append(f"{prefix}{key} = {value['re']!r} + {value['im']!r}i")
            else:
                lines.append(f"{prefix}{key}:")
                lines.extend(_text_lines(value, prefix + "  "))
        elif isinstance(value, list):
            lines.append(f"{prefix}{key}: [{len(value)} entries]")
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    lines.append(f"{prefix}  [{i}]")
                    lines.extend(_text_lines(item, prefix + "    "))
                else:
                    lines.append(f"{prefix}  [{i}] {item!r}")
        else:
            lines.append(f"{prefix}{key} = {value!r}")
    return lines


def _cmd_phi(args: argparse.Namespace) -> tuple[dict, int]:
    tol = _check_tol(args.tol)
    largs = LerchArgs(parse_complex(args.z), parse_complex(args.s), parse_complex(args.u))
    result = phi(largs, tol, allow_quadrature=args.quadrature_fallback)
    return (
        {
            "value": _cplx_out(result.value),
            "abs_err": result.abs_err,
            "method": result.method,
            "work": result.work,
        },
        0,
    )


def _add_exponent_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--u")
    parser.add_argument("--v")
    for i in range(1, _MAX_US + 1):
        parser.add_argument(f"--u{i}", help=argparse.SUPPRESS)


def _indexed_exponents(args: argparse.Namespace) -> list:
    """The exponents given as --u1 ... --u20, in index order."""
    vals = (getattr(args, f"u{i}") for i in range(1, _MAX_US + 1))
    return [parse_complex(val) for val in vals if val is not None]


def _spec_from_flags(args: argparse.Namespace) -> IntegrandSpec:
    family = _THEOREM_TO_FAMILY[args.theorem]
    z = parse_complex(args.z)
    s = parse_complex(args.s)
    if family == FAMILY_DISTINCT:
        exps = _indexed_exponents(args)
        if args.u is not None and not exps:
            exps = [parse_complex(args.u)]
        if not exps:
            raise DomainError("t5 needs exponents --u1 ... --uM")
    elif family == FAMILY_F_KERNEL:
        if args.u is None or args.v is None:
            raise DomainError("t3-pair needs --u and --v")
        exps = [parse_complex(args.u), parse_complex(args.v)]
    else:
        if args.u is None:
            raise DomainError(f"{args.theorem} needs --u")
        exps = [parse_complex(args.u)]
    return IntegrandSpec(m=args.m, family=family, exponents=tuple(exps), z=z, s=s)


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    tol = _check_tol(args.tol)
    spec = _spec_from_flags(args)
    report = verify(spec, tol=tol, qmc=_qmc_options(args) if args.qmc else None)
    return report.to_json_dict(), 0 if report.pass_ else 1


def _cmd_constants(args: argparse.Namespace) -> tuple[dict, int]:
    tol = _check_tol(args.tol)
    fn = euler_gamma_via_integral if args.name == "gamma" else ln4_over_pi_via_integral
    result = fn(args.m, method=args.method, opts=_qmc_options(args))
    payload = result.to_json_dict()
    gap = abs(result.value - result.reference)
    if result.method == "qmc":
        ok = sigma_gap(result.value, result.error, result.reference) <= PASS_SIGMA
    else:
        ok = gap <= max(tol, 1e-8)
    payload["abs_gap"] = gap
    payload["pass"] = ok
    return payload, 0 if ok else 1


def _spec_from_json(doc: dict) -> IntegrandSpec:
    try:
        return IntegrandSpec(
            m=int(doc["m"]),
            family=str(doc["family"]),
            exponents=tuple(_cplx_in(e) for e in doc["exponents"]),
            z=_cplx_in(doc["z"]),
            s=_cplx_in(doc["s"]),
        )
    except KeyError as exc:
        raise DomainError(f"spec file missing field {exc}") from exc


def reduced_to_json_dict(reduced: ReducedIntegrand) -> dict:
    return {
        "prefactor": reduced.prefactor,
        "terms": [
            {
                "coeff": _cplx_out(complex(t.coeff)),
                "w": _cplx_out(complex(t.w)),
                "p": _cplx_out(complex(t.p)),
                "z": _cplx_out(complex(t.z)),
            }
            for t in reduced.terms
        ],
    }


def reduced_from_json_dict(doc: dict) -> ReducedIntegrand:
    terms = tuple(
        KernelTerm(
            coeff=_cplx_in(t["coeff"]),
            w=_cplx_in(t["w"]),
            p=_cplx_in(t["p"]),
            z=_cplx_in(t["z"]),
        )
        for t in doc["terms"]
    )
    return ReducedIntegrand(terms=terms, prefactor=float(doc.get("prefactor", 1.0)))


def _cmd_reduce(args: argparse.Namespace) -> tuple[dict, int]:
    if args.spec is not None:
        with open(args.spec, encoding="utf-8") as fh:
            spec = _spec_from_json(json.load(fh))
    else:
        if args.family is None:
            raise DomainError("reduce needs --spec FILE or inline --family flags")
        exps = _indexed_exponents(args)
        if args.u is not None:
            exps.insert(0, parse_complex(args.u))
        if args.v is not None:
            exps.append(parse_complex(args.v))
        spec = IntegrandSpec(
            m=args.m,
            family=args.family,
            exponents=tuple(exps),
            z=parse_complex(args.z),
            s=parse_complex(args.s),
        )
    reduced = reduce(spec)
    payload = reduced_to_json_dict(reduced)
    if args.evaluate:
        result = reduced_eval(reduced, _check_tol(args.tol))
        payload.update(value=_cplx_out(result.value), abs_err=result.abs_err, nodes=result.nodes)
    return payload, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lerchint",
        description="Lerch transcendent evaluation and cube-integral identity verification",
    )
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p_phi = sub.add_parser("phi", help="evaluate Phi(z,s,u)")
    p_phi.add_argument("--z", required=True)
    p_phi.add_argument("--s", required=True)
    p_phi.add_argument("--u", required=True)
    p_phi.add_argument("--tol", type=float, default=1e-10)
    p_phi.add_argument("--quadrature-fallback", action="store_true")

    p_ver = sub.add_parser("verify", help="verify one identity instance")
    p_ver.add_argument("--theorem", choices=sorted(_THEOREM_TO_FAMILY), required=True)
    p_ver.add_argument("--m", type=int, required=True)
    p_ver.add_argument("--z", required=True)
    p_ver.add_argument("--s", required=True)
    _add_exponent_flags(p_ver)
    p_ver.add_argument("--tol", type=float, default=1e-10)
    p_ver.add_argument("--qmc", action=argparse.BooleanOptionalAction, default=False)
    _add_qmc_flags(p_ver)

    p_con = sub.add_parser("constants", help="gamma / ln(4/pi) integral values")
    p_con.add_argument("--name", choices=("gamma", "ln4pi"), required=True)
    p_con.add_argument("--m", type=int, required=True)
    p_con.add_argument("--method", choices=("reduced", "qmc"), default="reduced")
    p_con.add_argument("--tol", type=float, default=1e-10)
    _add_qmc_flags(p_con)

    p_red = sub.add_parser("reduce", help="show the 1-D reduction of a spec")
    p_red.add_argument("--spec", help="path to a JSON IntegrandSpec")
    p_red.add_argument("--family", choices=(FAMILY_DISTINCT, FAMILY_SYMMETRIC, FAMILY_F_KERNEL, FAMILY_THEOREM4))
    p_red.add_argument("--m", type=int, default=2)
    p_red.add_argument("--z", default="0")
    p_red.add_argument("--s", default="1")
    _add_exponent_flags(p_red)
    p_red.add_argument("--evaluate", action="store_true", help="also integrate the reduction")
    p_red.add_argument("--tol", type=float, default=1e-10)

    return parser


_HANDLERS = {
    "phi": _cmd_phi,
    "verify": _cmd_verify,
    "constants": _cmd_constants,
    "reduce": _cmd_reduce,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        try:
            args.seed = _default_seed()
        except DomainError as exc:
            _emit({"error": {"type": "DomainError", "message": str(exc)}}, args.output)
            return 2
    try:
        payload, code = _HANDLERS[args.command](args)
    except (DomainError, EvaluationError, OSError, json.JSONDecodeError) as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, args.output)
        return 2
    except ConvergenceError as exc:
        _emit({"error": {"type": "ConvergenceError", "message": str(exc)}}, args.output)
        return 3
    _emit(payload, args.output)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
