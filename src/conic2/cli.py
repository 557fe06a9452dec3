"""Command-line entry point.

Subcommands:

- ``conic2 discriminant --spec ex1.json [--factors f.json]``: print Delta and
  its verified factorization.
- ``conic2 classify --spec ex1.json --point 0:1:0 [--field K]``: fiber type.
- ``conic2 verify --spec ex1.json [--factors f.json] [--cert-out c.json]``:
  run the surface criterion and print the verdict table.
- ``conic2 verify --corpus``: run every bundled example against its expected
  profile (the embedded corpus is also shipped as JSON files).
- ``conic2 search [--budget N] [--cert-out hits.json]``: the guided
  example search on the zero-corner template.

Exit codes: 0 = all checks pass, 1 = checks ran and failed, 2 = input
invalid or an output path unwritable, 3 = a resource bound (k_max /
specialization budget) was hit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from importlib import resources

from .amcert import (
    FactorizationMismatch,
    NotAbsolutelyIrreducible,
    component_factorization,
    example81_template,
    search_spieghiamolo,
    spec_hash,
    surface_criterion,
)
from .conic import (
    AllZero,
    DegreeMismatch,
    MalformedInput,
    ProjPoint,
    classify_fiber,
    discriminant,
    load_spec,
    read_json,
    spec_from_dict,
    spec_to_dict,
)
from .factor import UnluckySpecializationExhausted
from .geom import ExtensionBound
from .gf2k import NoEmbedding, UnsupportedDegree, field_new
from .poly import ParseError, Poly, poly_parse, poly_print

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

_INPUT_ERRORS = (
    DegreeMismatch,
    AllZero,
    ParseError,
    UnsupportedDegree,
    NoEmbedding,
    FileNotFoundError,
    json.JSONDecodeError,
    ValueError,
)
_RESOURCE_ERRORS = (ExtensionBound, UnluckySpecializationExhausted)


def _load_factors(path: str, ctx) -> list[Poly]:
    data = read_json(path)
    if isinstance(data, dict):
        if "factors" not in data:
            raise MalformedInput("a factors object needs a 'factors' list")
        data = data["factors"]
    if not isinstance(data, list) or not all(isinstance(t, str) for t in data):
        raise MalformedInput("factors must be a list of polynomial strings")
    return [poly_parse(t, ctx, ("x", "y", "z")) for t in data]


def _corpus_dir():
    return resources.files("conic2") / "corpus"


def load_corpus_spec(name: str):
    """Load a bundled example (ex1 .. ex5, rem_double_line) by name."""
    path = _corpus_dir() / f"{name}.json"
    return spec_from_dict(json.loads(path.read_text()))


def corpus_manifest() -> dict:
    return json.loads((_corpus_dir() / "manifest.json").read_text())


def cmd_discriminant(args) -> int:
    spec = load_spec(args.spec)
    delta = discriminant(spec)
    print(f"Delta = {poly_print(delta)}")
    claimed = _load_factors(args.factors, spec.ctx) if args.factors else None
    try:
        factors = component_factorization(spec, claimed)
    except (FactorizationMismatch, NotAbsolutelyIrreducible) as exc:
        print(f"factorization FAILED: {exc}")
        return EXIT_INPUT
    pretty = " * ".join(
        f"({poly_print(f)})" + (f"^{m}" if m > 1 else "") for f, m in factors
    )
    print(f"factors: {pretty}")
    return EXIT_PASS


def cmd_classify(args) -> int:
    spec = load_spec(args.spec)
    ctx = field_new(args.field) if args.field is not None else None
    point = ProjPoint.parse(args.point, ctx)
    if point.ctx.k % spec.ctx.k != 0:
        point = point.embed_to(field_new(math.lcm(spec.ctx.k, point.ctx.k)))
    print(str(classify_fiber(spec, point)))
    return EXIT_PASS


def _write(path: str, text: str) -> None:
    """Write text and a newline to path; an unwritable path is invalid input."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _print_verdict(name: str, cert) -> None:
    print(f"== {name}: spec {cert.spec_hash[:23]}")
    for key, h in cert.hypotheses.items():
        mark = "PASS" if h.passed else "FAIL"
        print(f"  [{mark}] {key}: {h.detail}")
    print(f"  verdict: {'all hypotheses hold' if cert.all_pass else 'NOT all hypotheses hold'}")
    if cert.all_pass:
        print(f"  cited conclusion: {cert.conclusion}")


def cmd_verify(args) -> int:
    if args.corpus:
        return _verify_corpus(args)
    spec = load_spec(args.spec)
    claimed = _load_factors(args.factors, spec.ctx) if args.factors else None
    cert = surface_criterion(spec, claimed, k_max=args.k_max)
    _print_verdict(args.spec, cert)
    if args.cert_out:
        _write(args.cert_out, cert.to_json())
    return EXIT_PASS if cert.all_pass else EXIT_FAIL


def _verify_corpus(args) -> int:
    manifest = corpus_manifest()
    all_matched = True
    for entry in manifest["examples"]:
        spec = load_corpus_spec(entry["name"])
        claimed = None
        if entry.get("claimed_factors"):
            claimed = [
                poly_parse(t, spec.ctx, ("x", "y", "z")) for t in entry["claimed_factors"]
            ]
        cert = surface_criterion(spec, claimed, k_max=args.k_max)
        _print_verdict(entry["name"], cert)
        failing = sorted(k for k, h in cert.hypotheses.items() if not h.passed)
        expected = sorted(entry.get("expect_failing", []))
        matched = (cert.all_pass == entry["expect_all_pass"]) and failing == expected
        if not matched:
            all_matched = False
            print(f"  MISMATCH: expected failing={expected}, got {failing}")
        else:
            print(f"  matches the expected profile ({'all-pass' if cert.all_pass else 'failing: ' + ', '.join(expected)})")
        if args.cert_out:
            _write(f"{args.cert_out.rstrip('/')}/{entry['name']}.cert.json", cert.to_json())
    return EXIT_PASS if all_matched else EXIT_FAIL


def cmd_search(args) -> int:
    template = example81_template()
    result = search_spieghiamolo(template, budget=args.budget, k_max=args.k_max)
    print(f"tried {result.tried} candidates; {len(result.hits)} certified hits"
          + ("; budget exhausted" if result.exhausted_budget else ""))
    payload = []
    for spec, cert in result.hits:
        print(f"  hit: bc = {poly_print(spec.sections['bc'])}, cc = {poly_print(spec.sections['cc'])}")
        payload.append({"spec": spec_to_dict(spec), "spec_hash": spec_hash(spec), "all_pass": cert.all_pass})
    if args.cert_out:
        _write(args.cert_out, json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="conic2", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, spec="required"):
        """--spec ("required", "optional" or None: absent) and --k-max."""
        if spec is not None:
            p.add_argument("--spec", required=spec == "required", help="spec JSON path")
        p.add_argument("--k-max", type=int, default=24, dest="k_max",
                       help="largest extension degree over F_2 (default 24)")

    p = sub.add_parser("discriminant", help="print Delta and its verified factorization")
    common(p)
    p.add_argument("--factors", help="JSON file with claimed factors to verify")
    p.set_defaults(func=cmd_discriminant)

    p = sub.add_parser("classify", help="classify the fiber over a point")
    common(p)
    p.add_argument("--point", required=True, help="colon-separated point, e.g. 0:1:0")
    p.add_argument("--field", type=int, help="extension degree of the point's field")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="run the surface criterion, write a certificate")
    common(p, spec="optional")
    p.add_argument("--factors", help="JSON file with claimed factors")
    p.add_argument("--cert-out", dest="cert_out", help="write the certificate JSON here")
    p.add_argument("--corpus", action="store_true",
                   help="verify every bundled example against its expected profile")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="guided example search (zero-corner template)")
    common(p, spec=None)
    p.add_argument("--budget", type=int, default=2048, help="max candidates to enumerate")
    p.add_argument("--cert-out", dest="cert_out", help="write discovered specs here")
    p.set_defaults(func=cmd_search)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "k_max", 24) < 4:
        print("--k-max must be at least 4", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "budget", 0) < 0:
        print("--budget must be nonnegative", file=sys.stderr)
        return EXIT_INPUT
    if args.command == "verify" and not args.corpus and not args.spec:
        print("verify needs --spec or --corpus", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except _RESOURCE_ERRORS as exc:
        print(f"resource bound hit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except _INPUT_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
