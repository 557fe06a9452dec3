"""The three benchmark workloads and their output checks.

A workload turns the run's seed into a sequence of op inputs and runs one op
at a time through the program.  Input generation and output checks happen
outside the timed region; the op itself calls the program only through
module attributes (``amcert.surface_criterion``, ...), so the tracer's
rebinding of those names is seen.

- ``corpus``: one op is ``surface_criterion`` over the six bundled specs with
  the manifest's claimed factors, as ``conic2 verify --corpus`` runs them.
  The inputs never change; the seed is unused.
- ``moved``: one op parses and certifies the six specs after a seeded change
  of base coordinates (see :mod:`moved`), with no claimed factors.  Every
  op's input is new.  A worker times at most ``moved.FRESH_PASSES`` ops,
  so that stays true however fast the program gets.
- ``search``: one op is ``search_spieghiamolo(example81_template(),
  budget=SEARCH_BUDGET)``.  The search has no randomness; the seed is unused.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import moved

ROOT = Path(__file__).resolve().parent.parent
CORPUS_DIR = ROOT / "src" / "conic2" / "corpus"
BASE_VARS = ("x", "y", "z")

# The first three weight classes of the zero-corner family (1 + 10 + 45
# candidates); every one of them is certified.
SEARCH_BUDGET = 56
SEARCH_EXPECT = {"tried": 56, "hits": 56}


def _manifest() -> list:
    return json.loads((CORPUS_DIR / "manifest.json").read_text())["examples"]


def _spec_json(entry: dict) -> dict:
    return json.loads((CORPUS_DIR / entry["file"]).read_text())


def _digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


def _profile_problems(entry: dict, cert) -> list:
    """The certificate's hypothesis profile must match the manifest entry."""
    failing = sorted(k for k, h in cert.hypotheses.items() if not h.passed)
    expected = sorted(entry.get("expect_failing", []))
    if failing == expected and cert.all_pass == entry["expect_all_pass"]:
        return []
    return [f"{entry['name']}: expected failing={expected} all_pass={entry['expect_all_pass']}, "
            f"got failing={failing} all_pass={cert.all_pass}"]


class _SpecPass:
    """An op certifies one pass of specs; its output is the certificate list."""

    def certificates(self, certs) -> int:
        return len(certs)

    def digest(self, certs) -> str:
        return _digest(c.to_json() for c in certs)


class Corpus(_SpecPass):
    inputs_repeat = True
    max_ops = None

    def __init__(self, conic2, seed: str) -> None:
        self.amcert = conic2.amcert
        self.items = []
        for entry in _manifest():
            spec = conic2.conic.spec_from_dict(_spec_json(entry))
            claimed = None
            if entry.get("claimed_factors"):
                claimed = [conic2.poly.poly_parse(t, spec.ctx, BASE_VARS)
                           for t in entry["claimed_factors"]]
            self.items.append((entry, spec, claimed))

    def next_input(self):
        return self.items

    def run(self, items):
        return [self.amcert.surface_criterion(spec, claimed) for _, spec, claimed in items]

    def check(self, items, certs) -> list:
        problems = []
        for (entry, _, _), cert in zip(items, certs):
            problems += _profile_problems(entry, cert)
        return problems

    def describe(self, items) -> str:
        return "corpus pass over " + ", ".join(e["name"] for e, _, _ in items)


class Moved(_SpecPass):
    inputs_repeat = False
    max_ops = moved.FRESH_PASSES  # timed ops per worker, so no input repeats

    def __init__(self, conic2, seed: str) -> None:
        self.amcert = conic2.amcert
        self.conic = conic2.conic
        self.entries = {e["name"]: e for e in _manifest()}
        self.stream = moved.MovedStream(
            seed, [(name, _spec_json(e)) for name, e in self.entries.items()])

    def next_input(self):
        return self.stream.next_pass()

    def run(self, items):
        return [self.amcert.surface_criterion(self.conic.spec_from_dict(data))
                for _, _, data in items]

    def check(self, items, certs) -> list:
        problems = []
        for (name, _, _), cert in zip(items, certs):
            problems += _profile_problems(self.entries[name], cert)
        return problems

    def describe(self, items) -> str:
        return json.dumps([{"source": name, "matrix": matrix, "spec": data}
                           for name, matrix, data in items], sort_keys=True)


class Search:
    inputs_repeat = True
    max_ops = None

    def __init__(self, conic2, seed: str) -> None:
        self.amcert = conic2.amcert
        self.spec_to_dict = conic2.conic.spec_to_dict
        self.template = conic2.amcert.example81_template()

    def next_input(self):
        return self.template

    def run(self, template):
        return self.amcert.search_spieghiamolo(template, budget=SEARCH_BUDGET)

    def check(self, template, result) -> list:
        got = {"tried": result.tried, "hits": len(result.hits)}
        return [] if got == SEARCH_EXPECT else [f"search: expected {SEARCH_EXPECT}, got {got}"]

    def certificates(self, result) -> int:
        return result.tried

    def digest(self, result) -> str:
        texts = [str(result.tried)]
        for spec, cert in result.hits:
            texts += [json.dumps(self.spec_to_dict(spec), sort_keys=True), cert.to_json()]
        return _digest(texts)

    def describe(self, template) -> str:
        return f"search_spieghiamolo(example81_template(), budget={SEARCH_BUDGET})"


WORKLOADS = {"corpus": Corpus, "moved": Moved, "search": Search}
