"""Command-line surface: density evaluation, norming verdicts, moduli scans.

Exit codes: 0 success (or consistent verdict), 2 input error, 3 refutation
or failed certificate validation.  All randomness flows from --seed, so a
fixed invocation produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path

from .density import density, elimination_plan
from .graphs import Graph, GraphParseError, edge_components, parse_edge_list
from .kernels import absolute, kernel_from_json
from .moduli import estimate_to_json, estimates_to_csv, modulus_scan
from .norming import (
    REFUTED,
    certificate_from_json,
    certificate_to_json,
    full_verdict,
    validate_certificate,
    verdict_to_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUTED = 3


class InputError(Exception):
    pass


def _read(path: str, what: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from None


def _read_json(path: str, what: str):
    try:
        return json.loads(_read(path, what))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})") from None


def _load_graph(path: str) -> Graph:
    text = _read(path, "graph")
    try:
        return parse_edge_list(text)
    except GraphParseError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_kernel(path: str):
    obj = _read_json(path, "kernel")
    try:
        return kernel_from_json(obj)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def _parse_grid(text: str, flag: str, kind: type) -> list:
    try:
        return [kind(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        noun = "numbers" if kind is float else "integers"
        raise InputError(f"{flag}: expected comma-separated {noun}, got {text!r}") from None


def cmd_density(args: argparse.Namespace) -> int:
    h = _load_graph(args.graph)
    w = _load_kernel(args.kernel)
    if h.edge_count == 0:
        raise InputError("graph has no edges; density is trivially 1 and norms are undefined")
    t = density(h, w)
    m = h.edge_count
    # the same expressions as norm_h / norm_rh, with t computed once
    print(f"t(H,W) = {t:.12g}")
    print(f"norm_H(W) = {abs(t) ** (1.0 / m):.12g}")
    print(f"norm_rH(W) = {density(h, absolute(w)) ** (1.0 / m):.12g}")
    # the plan of h restricted to each component is that component's plan
    width = max(elimination_plan(c.graph).width for c in edge_components(h))
    print(f"elimination_width = {width}")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    h = _load_graph(args.graph)
    if h.edge_count == 0:
        raise InputError("graph has no edges; nothing to check")
    verdict = full_verdict(h, mode=args.mode, trials=args.budget, seed=args.seed)
    print(json.dumps(verdict_to_json(verdict), indent=2))
    if args.certificate_out and verdict.certificates:
        Path(args.certificate_out).write_text(
            json.dumps(certificate_to_json(verdict.certificates[0]), indent=2) + "\n"
        )
    return EXIT_REFUTED if verdict.overall == REFUTED else EXIT_OK


def cmd_moduli(args: argparse.Namespace) -> int:
    h = _load_graph(args.graph)
    if h.edge_count == 0:
        raise InputError("graph has no edges; norms are undefined")
    eps_grid = _parse_grid(args.eps_grid, "--eps-grid", float)
    n_grid = _parse_grid(args.n_grid, "--n-grid", int)
    seeds = _parse_grid(args.seeds, "--seeds", int)
    estimates = modulus_scan(h, args.kind, eps_grid, n_grid, seeds)
    if args.format == "csv":
        sys.stdout.write(estimates_to_csv(estimates))
    else:
        records = [estimate_to_json(e, include_witnesses=args.witnesses) for e in estimates]
        print(json.dumps(records, indent=2))
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    obj = _read_json(args.certificate, "certificate")
    try:
        cert = certificate_from_json(obj)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise InputError(f"{args.certificate}: malformed certificate ({exc})") from None
    ok, detail = validate_certificate(cert, margin=args.margin)
    print(f"kind = {cert.kind}")
    print(f"valid = {'yes' if ok else 'no'}")
    print(f"detail = {detail}")
    return EXIT_OK if ok else EXIT_REFUTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphnorms",
        description="Homomorphism densities in step kernels and graph-norm certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("density", help="evaluate t(H,W) and the derived norms")
    p.add_argument("graph", help="edge-list file (lines 'u v', optional 'vertices N' header)")
    p.add_argument("kernel", help="kernel JSON file with 'measures' and 'values'")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("check", help="run the norming necessary-condition checks")
    p.add_argument("graph")
    p.add_argument("--mode", choices=["weak", "semi"], default="weak")
    p.add_argument("--budget", type=int, default=1000, help="search trials (default 1000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--certificate-out", help="write the first certificate to this file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("moduli", help="convexity/smoothness witness scans")
    p.add_argument("graph")
    p.add_argument("--kind", choices=["convexity", "smoothness"], required=True)
    p.add_argument("--eps-grid", default="0.5", help="comma-separated epsilons in (0,1)")
    p.add_argument("--n-grid", default="16,32,64,128", help="comma-separated block counts")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--witnesses", action="store_true", help="embed witness kernels in JSON output")
    p.set_defaults(func=cmd_moduli)

    p = sub.add_parser("validate", help="re-validate a certificate file")
    p.add_argument("certificate")
    p.add_argument("--margin", type=float, default=1e-9)
    p.set_defaults(func=cmd_validate)

    return parser


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
