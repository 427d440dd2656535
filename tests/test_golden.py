"""Replays the golden-report corpus and compares every byte (see golden_corpus.py)."""

import json

from golden_corpus import CASES_FILE, COMMANDS, GOLDEN_DIR, case_entry, run_case


def test_corpus_replays_byte_for_byte():
    cases = json.loads(CASES_FILE.read_text())
    assert {case["argv"][0] for case in cases} == set(COMMANDS)
    changed = []
    for case in cases:
        inputs = case.get("inputs", {})
        outcome, report = run_case(case["argv"], inputs)
        entry = case_entry(case["name"], case["argv"], inputs, outcome, report)
        stored = None if case["report"] is None else (GOLDEN_DIR / case["report"]).read_bytes()
        if entry != case or report != stored:
            changed.append(case["name"])
    assert not changed, f"{len(changed)} of {len(cases)} golden cases changed: {changed}"
