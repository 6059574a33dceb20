"""Seeded stream of short pipeline commands, and the checks on their output.

Every command is one the CLI documents, kept short so that a run repeats
each of them many times:

- `enumerate --json --n-max N` for N = 10, 13, ..., 97: the tuple scan
  and the re-check of its survivors;
- `exclude-case2 --json`, twice: the exclusion chain and its symbolic
  solve;
- `verify --json --threads 2 --n-max N` with N in 30..39: every layer of
  the pipeline, the scan through the process pool. The inequality range
  never drops below 10^5, so this command's stride probe is as large as
  in `verify-default`.

The scan sizes are fixed, so the stream's work and its median command are
alike from seed to seed; the seed picks the `verify` command's n_max and
the order of the commands.

The checks use the paper's result, not the program's output: up to any
n_max >= 9 the scan finds exactly the two cases (4,1,3,2,2,1) and
(9,1,3,2,6,4), `verify` concludes "quadro-cubic unique" with only the
first, and the exclusion chain ends in a contradiction with d2 < 32.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

CASE1 = [4, 1, 3, 2, 2, 1]
CASE2 = [9, 1, 3, 2, 6, 4]
EXPECTED_FINAL = [CASE1]
EXPECTED_TWO_CASE = [CASE1, CASE2]
ENUMERATE_N_MAX = range(10, 100, 3)
EXCLUDE_COMMANDS = 2


def verify_document_ok(doc: dict) -> bool:
    """The verdict, its survivors, every step and the two-case witness."""
    steps = doc.get("steps") or []
    two_case = [s for s in steps if s.get("id") == "theorem-2case"]
    return (
        doc.get("conclusion") == "quadro-cubic unique"
        and doc.get("survivors") == EXPECTED_FINAL
        and all(s.get("status") == "pass" for s in steps)
        and len(two_case) == 1
        and two_case[0]["witness"].get("survivors") == EXPECTED_TWO_CASE
    )


def _document_ok(argv: tuple[str, ...], doc: dict) -> bool:
    command = argv[0]
    if command == "verify":
        return verify_document_ok(doc)
    if command == "enumerate":
        n_max = int(argv[argv.index("--n-max") + 1])
        found = [case for case in EXPECTED_TWO_CASE if case[0] <= n_max]
        return doc == {"n_max": n_max, "survivors": found}
    # exclude-case2
    return doc.get("d2_bound") == "32" and bool(doc.get("contradiction")) and bool(doc.get("chain"))


@dataclass(frozen=True)
class PipelineCase:
    argv: tuple[str, ...]

    def ok(self, rc: int, out: str, err: str) -> bool:
        """Exit 0 and a JSON document that states the paper's result."""
        if rc != 0:
            return False
        try:
            return _document_ok(self.argv, json.loads(out))
        except (json.JSONDecodeError, AttributeError, KeyError, TypeError):
            return False


def make_stream(seed: int) -> list[PipelineCase]:
    """The stream's commands; the same seed gives the same commands."""
    rng = random.Random(seed)
    argvs = [("enumerate", "--json", "--n-max", str(n)) for n in ENUMERATE_N_MAX]
    argvs += [("exclude-case2", "--json")] * EXCLUDE_COMMANDS
    argvs.append(("verify", "--json", "--threads", "2", "--n-max", str(rng.randint(30, 39))))
    rng.shuffle(argvs)
    return [PipelineCase(argv) for argv in argvs]
