"""Replays the golden-report corpus and compares every byte (see golden_corpus.py)."""

import json
from importlib import resources

import jsonschema
from golden_corpus import CASES_FILE, COMMANDS, GOLDEN_DIR, all_cases, case_entry, run_case

SCHEMA = json.loads(
    resources.files("cbcdyn").joinpath("schemas/report.schema.json").read_text()
)


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


def test_manifest_lists_the_generated_cases():
    cases = json.loads(CASES_FILE.read_text())
    stored = [(case["name"], case["argv"], case.get("inputs", {})) for case in cases]
    assert stored == [(name, list(argv), inputs) for name, argv, inputs in all_cases()]


def test_stored_reports_match_the_schema():
    cases = json.loads(CASES_FILE.read_text())
    reports = [case["report"] for case in cases if case["report"] is not None]
    # jsonschema.validate would check the schema and build a validator per report
    validator_class = jsonschema.validators.validator_for(SCHEMA)
    validator_class.check_schema(SCHEMA)
    validator = validator_class(SCHEMA)
    for name in reports:
        validator.validate(json.loads((GOLDEN_DIR / name).read_text()))
