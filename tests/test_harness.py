"""Dataset loading, synthetic generation and the experiment runner."""

import codecs
import csv
import itertools
import json
import math
import os
import random
import shutil
import threading
import time
from pathlib import Path

import pytest

from topkset import (ExperimentConfig, Policy, Question, TableOracle, harness,
                     ValidationError, generate_synthetic, load_problem,
                     run_experiment, solve, unknown_questions, write_bundle)
from topkset.engine import (DEP_MAX_SUPPORT, MAX_CANDIDATES,
                            MAX_SET_QUESTIONS)
from topkset.harness import (_smallest_n, default_spec, exact_scores,
                             load_spec)

from .conftest import hotel_problem, peak_bytes

F1_DIR = Path(__file__).resolve().parent.parent / "datasets" / "f1"


class TestLoadF1:
    def test_matches_the_handbuilt_problem(self):
        loaded = load_problem(F1_DIR, 3)
        built = hotel_problem()
        assert loaded.entities == built.entities
        assert [c.members for c in loaded.candidates] == \
            [c.members for c in built.candidates]
        assert dict(loaded.knowns.items()) == dict(built.knowns.items())
        assert loaded.ground_truth == built.ground_truth
        assert loaded.query_text == built.query_text

    def test_spec_fields(self):
        spec = load_problem(F1_DIR, 3).spec
        assert [c.name for c in spec.constructs] == ["rel", "div"]
        assert [c.arity for c in spec.constructs] == [1, 2]
        assert (spec.min_score, spec.max_score, spec.grid_step) == \
            (0.0, 1.0, 0.5)

    def test_ground_truth_covers_thirteen_questions(self):
        loaded = load_problem(F1_DIR, 3, require_ground_truth=True)
        assert len(loaded.ground_truth) == 13

    def test_candidate_cap_applies_to_explicit_candidates(self):
        loaded = load_problem(F1_DIR, 3, candidate_cap=2)
        assert len(loaded.candidates) == 2


def _broken_copy(tmp_path: Path) -> Path:
    dst = tmp_path / "ds"
    shutil.copytree(F1_DIR, dst)
    return dst


def _append(path: Path, line: str) -> None:
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")


class TestLoaderValidation:
    def test_missing_score_file(self, tmp_path):
        ds = _broken_copy(tmp_path)
        (ds / "div.csv").unlink()
        with pytest.raises(ValidationError, match="missing score file"):
            load_problem(ds, 3)

    def test_duplicate_entity(self, tmp_path):
        ds = _broken_copy(tmp_path)
        _append(ds / "entities.csv", "HNY,Again,")
        with pytest.raises(ValidationError, match="duplicate entity id"):
            load_problem(ds, 3)

    def test_entity_without_id(self, tmp_path):
        ds = _broken_copy(tmp_path)
        _append(ds / "entities.csv", " ,Nameless,")
        with pytest.raises(ValidationError, match="entity row without id"):
            load_problem(ds, 3)

    def test_empty_entities(self, tmp_path):
        ds = _broken_copy(tmp_path)
        (ds / "entities.csv").write_text("id,displayName,contextText\n")
        with pytest.raises(ValidationError, match="no rows"):
            load_problem(ds, 3)

    def test_off_grid_score(self, tmp_path):
        ds = _broken_copy(tmp_path)
        text = (ds / "rel.csv").read_text().replace("MLN,1.0", "MLN,0.3")
        (ds / "rel.csv").write_text(text)
        with pytest.raises(ValidationError, match="off-grid"):
            load_problem(ds, 3)

    def test_conflicting_scores_across_symmetric_rows(self, tmp_path):
        ds = _broken_copy(tmp_path)
        _append(ds / "div.csv", "MLN,HNY,0.0,1")
        with pytest.raises(ValidationError, match="conflicting scores"):
            load_problem(ds, 3)

    def test_repeated_known_row_with_the_same_score_is_kept_once(
            self, tmp_path):
        """A mirrored row that reads as the same grid value, also when it
        misses it by less than GRID_TOL, is kept once as that value."""
        f1 = load_problem(F1_DIR, 3)
        for score in ("1.0", "1.0000000001"):
            ds = _broken_copy(tmp_path / score)
            _append(ds / "div.csv", f"MLN,HNY,{score},1")
            loaded = load_problem(ds, 3)
            assert dict(loaded.knowns.items()) == dict(f1.knowns.items())
            assert loaded.ground_truth == f1.ground_truth

    def test_missing_ground_truth_names_the_first_open_question(
            self, tmp_path):
        """Unscored rows load, but a table-oracle run needs every score;
        the error names the first missing question in universe order."""
        ds = _broken_copy(tmp_path)
        text = (ds / "div.csv").read_text().replace("MLN,SHN,0.0,0",
                                                    "MLN,SHN,,0")
        (ds / "div.csv").write_text(text)
        (ds / "rel.csv").write_text(
            (ds / "rel.csv").read_text().replace("HNY,0.5,0", "HNY,,0"))
        load_problem(ds, 3)
        with pytest.raises(ValidationError, match=r"^table oracle needs a "
                           r"score for rel\(HNY\) but none was given$"):
            load_problem(ds, 3, require_ground_truth=True)
        (ds / "rel.csv").write_text(
            (ds / "rel.csv").read_text().replace("HNY,,0", "HNY,0.5,0"))
        with pytest.raises(ValidationError,
                           match=r"score for div\(MLN, SHN\) but"):
            load_problem(ds, 3, require_ground_truth=True)

    def test_known_row_without_score(self, tmp_path):
        ds = _broken_copy(tmp_path)
        text = (ds / "div.csv").read_text().replace("HYN,SHN,,0", "HYN,SHN,,1")
        (ds / "div.csv").write_text(text)
        with pytest.raises(ValidationError, match="lacks a score"):
            load_problem(ds, 3)

    @pytest.mark.parametrize("flag, known", [
        ("False", False), (" 0 ", False), (" TRUE ", True), ("", True),
        ("  ", True)])
    def test_known_flag_values(self, tmp_path, flag, known):
        """1/true reveal a score and 0/false hide it, in any case and with
        spaces around; an empty cell reveals it."""
        ds = _broken_copy(tmp_path)
        text = (ds / "rel.csv").read_text().replace("HNY,0.5,0",
                                                    f"HNY,0.5,{flag}")
        (ds / "rel.csv").write_text(text)
        problem = load_problem(ds, 3)
        assert (Question("rel", ("HNY",)) in problem.knowns) is known
        assert problem.ground_truth[Question("rel", ("HNY",))] == 0.5

    def test_unrecognised_known_flag(self, tmp_path):
        ds = _broken_copy(tmp_path)
        text = (ds / "rel.csv").read_text().replace("HNY,0.5,0", "HNY,0.5,yes")
        (ds / "rel.csv").write_text(text)
        with pytest.raises(ValidationError,
                           match="rel.csv line 2: known flag 'yes'"):
            load_problem(ds, 3)

    def test_empty_score_file(self, tmp_path):
        ds = _broken_copy(tmp_path)
        (ds / "rel.csv").write_text("entity,score,known\n")
        with pytest.raises(ValidationError, match="no rows"):
            load_problem(ds, 3)

    def test_score_row_with_unknown_entity(self, tmp_path):
        ds = _broken_copy(tmp_path)
        _append(ds / "rel.csv", "ZZZ,0.5,1")
        with pytest.raises(ValidationError, match="unknown entity"):
            load_problem(ds, 3)

    def test_score_row_missing_a_column(self, tmp_path):
        ds = _broken_copy(tmp_path)
        _append(ds / "div.csv", "HNY,,0.5,1")
        with pytest.raises(ValidationError, match="missing column"):
            load_problem(ds, 3)

    def test_candidate_row_of_wrong_size(self, tmp_path):
        ds = _broken_copy(tmp_path)
        _append(ds / "candidates.csv", "HNY,MLN")
        with pytest.raises(ValidationError, match="not a 3-set"):
            load_problem(ds, 3)

    def test_candidates_of_only_blank_rows(self, tmp_path):
        ds = _broken_copy(tmp_path)
        (ds / "candidates.csv").write_text("\n , ,\n\n")
        with pytest.raises(ValidationError,
                           match="candidates.csv has no rows"):
            load_problem(ds, 3)

    def test_candidate_row_with_unknown_entity(self, tmp_path):
        ds = _broken_copy(tmp_path)
        _append(ds / "candidates.csv", "HNY,MLN,ZZZ")
        with pytest.raises(ValidationError, match="unknown entity"):
            load_problem(ds, 3)

    def test_a_long_candidate_list_is_read_in_little_memory(self, tmp_path):
        """200 000 rows: a cap of 10 reads ten of them, not the whole
        file; without a cap the rows past the limit are counted, not kept,
        for solve's own error. Blank rows past the limit do not count."""
        ds = _broken_copy(tmp_path)
        rows = (ds / "candidates.csv").read_text().splitlines()
        (ds / "candidates.csv").write_text("".join(
            f"{row}\n" for row in itertools.islice(itertools.cycle(rows),
                                                   200_000))
            + " , ,\n\t\n\n" * 100)
        assert peak_bytes(load_problem, ds, 3, 10) < 5 << 20
        assert len(load_problem(ds, 3, candidate_cap=10).candidates) == 10
        with pytest.raises(ValidationError,
                           match=f"^200000 candidates, above the limit of "
                                 f"{MAX_CANDIDATES} per solve; cap the list "
                                 f"with --candidates$"):
            load_problem(ds, 3)

    @pytest.mark.parametrize("listed", [True, False],
                             ids=["candidates-csv", "enumerated"])
    def test_k_sets_that_ask_too_many_questions_are_refused_unread(
            self, tmp_path, listed):
        """One 2000-set asks 2000 + C(2000, 2) questions of f1's spec,
        whether candidates.csv lists it or loading enumerates it."""
        ds = _broken_copy(tmp_path)
        entities = [f"E{i:04d}" for i in range(2000)]
        (ds / "entities.csv").write_text(
            "id\n" + "".join(f"{e}\n" for e in entities))
        if listed:
            (ds / "candidates.csv").write_text(",".join(entities) + "\n")
        else:
            (ds / "candidates.csv").unlink()
        with pytest.raises(ValidationError,
                           match=f"^a 2000-set asks 2001000 questions, above "
                                 f"the limit of {MAX_SET_QUESTIONS} per "
                                 f"candidate; use a smaller k$"):
            load_problem(ds, 2000)

    def test_a_huge_grid_is_refused_before_it_is_built(self, tmp_path):
        """10**8 grid values took 55 s to build and then ran out of
        memory; the spec is refused at once instead."""
        ds = _broken_copy(tmp_path)
        spec = json.loads((ds / "spec.json").read_text())
        (ds / "spec.json").write_text(json.dumps(
            dict(spec, range=[0, 100000], step=0.001)))
        t0 = time.perf_counter()
        with pytest.raises(ValidationError,
                           match=r"range \[0.0, 100000.0\] at grid step "
                                 r"0.001 has 100000000 steps, above the "
                                 r"limit of 1000000"):
            load_problem(ds, 3)
        assert time.perf_counter() - t0 < 1

    def test_require_ground_truth_without_full_coverage(self, tmp_path):
        ds = _broken_copy(tmp_path)
        text = (ds / "div.csv").read_text().replace("MLN,HYN,1.0,0\n", "")
        (ds / "div.csv").write_text(text)
        with pytest.raises(ValidationError, match="table oracle needs"):
            load_problem(ds, 3, require_ground_truth=True)
        # Without the flag the gap is fine; the question is simply open.
        load_problem(ds, 3)


class TestLoadSpec:
    def test_malformed_json(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text("{not json")
        with pytest.raises(ValidationError, match="cannot read"):
            load_spec(p)

    def test_missing_keys(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"constructs": []}))
        with pytest.raises(ValidationError, match="malformed"):
            load_spec(p)

    @pytest.mark.parametrize("drop, key", [
        ((), "step"), ((), "range"), (("name",), "name"),
        (("arity",), "arity")],
        ids=["step", "range", "construct-name", "construct-arity"])
    def test_a_missing_key_is_named(self, tmp_path, drop, key):
        raw = {"constructs": [{"name": "rel", "arity": 1}],
               "range": [0, 1], "step": 0.5}
        if drop:
            del raw["constructs"][0][key]
        else:
            del raw[key]
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as err:
            load_spec(p)
        assert str(err.value) == f"malformed scoring spec {p}: lacks '{key}'"

    def test_defaults(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({
            "constructs": [{"name": "rel", "arity": 1}],
            "range": [0, 1], "step": 0.25}))
        spec = load_spec(p)
        assert spec.constructs[0].weight == 1.0

    @pytest.mark.parametrize("construct, top, message", [
        ({"arity": 1.7}, {}, "arity 1.7 is not an integer"),
        ({"arity": True}, {}, "arity True is not an integer"),
        ({"weight": True}, {}, "weight True is not a number"),
        ({"weight": False}, {}, "weight False is not a number"),
        ({}, {"step": True}, "step True is not a number"),
        ({}, {"range": [False, 1]}, "range False is not a number"),
        ({}, {"range": [0, True]}, "range True is not a number"),
        ({"name": 5}, {}, "name 5 is not a string"),
        ({"definition": ["x"]}, {}, "definition ['x'] is not a string"),
        ({}, {"range": 5}, "range 5 is not a list of two numbers"),
        ({}, {"range": [0, 1, 2]},
         "range [0, 1, 2] is not a list of two numbers"),
        ({}, {"constructs": "rel"}, "constructs 'rel' is not a list of "
                                    "objects"),
        ({}, {"constructs": ["rel"]}, "constructs ['rel'] is not a list of "
                                      "objects"),
        ({"wieght": 0.5}, {}, "unknown construct key 'wieght'; expected one "
                              "of name, arity, weight, definition"),
        ({}, {"steps": 0.25}, "unknown key 'steps'; expected one of "
                              "constructs, range, step, aggregation"),
    ], ids=["arity-fraction", "arity-bool", "weight-true", "weight-false",
            "step-bool", "range-low-bool", "range-high-bool", "name-number",
            "definition-list", "range-number", "range-three",
            "constructs-string", "constructs-of-strings",
            "construct-key-unknown", "spec-key-unknown"])
    def test_mistyped_field_names_key_and_value(self, tmp_path, construct,
                                                top, message):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({
            "constructs": [{"name": "rel", "arity": 1, **construct}],
            "range": [0, 1], "step": 0.5, **top}))
        with pytest.raises(ValidationError) as err:
            load_spec(p)
        assert str(err.value) == f"malformed scoring spec {p}: {message}"

    def test_numeric_strings_are_numbers(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({
            "constructs": [{"name": "rel", "arity": "1", "weight": "2"},
                           {"name": "div", "arity": 2.0}],
            "range": ["0", "1"], "step": "0.25"}))
        spec = load_spec(p)
        assert [(c.arity, c.weight) for c in spec.constructs] == \
            [(1, 2.0), (2, 1.0)]
        assert (spec.min_score, spec.max_score, spec.grid_step) == \
            (0.0, 1.0, 0.25)

    def test_not_a_json_object(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text("[]")
        with pytest.raises(ValidationError, match="is not a JSON object"):
            load_spec(p)

    def test_only_sum_aggregation(self, tmp_path):
        p = tmp_path / "spec.json"
        raw = {"constructs": [{"name": "rel", "arity": 1}],
               "range": [0, 1], "step": 0.5}
        for aggregation in ("sum", "avg"):
            p.write_text(json.dumps(dict(raw, aggregation=aggregation)))
            if aggregation == "sum":
                assert load_spec(p).grid_step == 0.5
            else:
                with pytest.raises(ValidationError, match="aggregation 'avg'"):
                    load_spec(p)


def test_default_spec_shape():
    spec = default_spec()
    assert [c.name for c in spec.constructs] == ["rel", "div"]
    assert spec.grid_step == 0.5
    assert default_spec(0.25).steps == 4


class TestGenerateSynthetic:
    def test_same_seed_same_instance(self):
        a = generate_synthetic(6, 2, seed=7, unknown_count=5)
        b = generate_synthetic(6, 2, seed=7, unknown_count=5)
        assert a.ground_truth == b.ground_truth
        assert dict(a.knowns.items()) == dict(b.knowns.items())
        assert generate_synthetic(6, 2, seed=8, unknown_count=5).ground_truth \
            != a.ground_truth

    def test_unknown_count_is_honored(self):
        from topkset import question_universe
        p = generate_synthetic(6, 2, seed=3, unknown_count=4)
        open_qs = unknown_questions(
            question_universe(p.spec, p.candidates), p.knowns)
        assert len(open_qs) == 4

    def test_unknown_count_zero_reveals_everything(self):
        from topkset import question_universe
        p = generate_synthetic(5, 2, seed=1, unknown_count=0)
        universe = question_universe(p.spec, p.candidates)
        assert unknown_questions(universe, p.knowns) == ()
        assert len(p.knowns) == len(universe)

    def test_unknown_count_above_the_universe_leaves_all_open(self):
        p = generate_synthetic(4, 2, seed=2, unknown_count=100)
        assert len(p.knowns) == 0 and len(p.ground_truth) == 10

    def test_candidate_cap(self):
        p = generate_synthetic(8, 3, candidate_cap=5, seed=0)
        assert len(p.candidates) == 5

    def test_rejects_n_below_k(self):
        with pytest.raises(ValidationError):
            generate_synthetic(2, 3)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, k):
        with pytest.raises(ValidationError, match="^k must be >= 1$"):
            generate_synthetic(4, k)

    def test_refuses_k_sets_that_ask_too_many_questions(self):
        """One 2000-set asks 2000 + C(2000, 2) questions; refused before
        any k-set is listed."""
        with pytest.raises(ValidationError,
                           match=f"^a 2000-set asks 2001000 questions, above "
                                 f"the limit of {MAX_SET_QUESTIONS} per "
                                 f"candidate; use a smaller k$"):
            generate_synthetic(3000, 2000, candidate_cap=1)

    def test_refuses_more_k_sets_than_one_solve_takes(self):
        assert math.comb(33, 3) == 5456 > MAX_CANDIDATES
        with pytest.raises(ValidationError, match="^5456 candidates, above"):
            generate_synthetic(33, 3)
        assert len(generate_synthetic(32, 3).candidates) == 4960

    def test_scores_live_on_the_grid(self):
        p = generate_synthetic(5, 2, seed=9)
        assert all(p.spec.grid_index(v) is not None
                   for v in p.ground_truth.values())


def test_write_bundle_round_trips(tmp_path):
    problem = generate_synthetic(5, 2, candidate_cap=6, seed=13,
                                 unknown_count=4)
    out = write_bundle(problem, tmp_path / "bundle")
    loaded = load_problem(out, 2)
    assert loaded.entities == problem.entities
    assert [c.members for c in loaded.candidates] == \
        [c.members for c in problem.candidates]
    assert dict(loaded.knowns.items()) == dict(problem.knowns.items())
    assert loaded.ground_truth == problem.ground_truth
    assert loaded.spec == problem.spec


def test_a_byte_order_mark_changes_nothing(tmp_path, make_clock):
    """Every file of a dataset may start with a UTF-8 byte-order mark, as
    spreadsheet exports write; it loads and solves exactly as without."""
    problem = generate_synthetic(6, 2, seed=4, unknown_count=7)
    plain = write_bundle(problem, tmp_path / "plain")
    marked = Path(shutil.copytree(plain, tmp_path / "marked"))
    for path in marked.iterdir():
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    runs = []
    for root in (plain, marked):
        loaded = load_problem(root, 2, require_ground_truth=True)
        trace = root.parent / f"{root.name}.jsonl"
        result = solve(loaded, Policy.ENTRRED_DEP,
                       TableOracle(loaded.ground_truth),
                       trace_path=str(trace), clock=make_clock())
        runs.append((loaded, result, trace.read_bytes()))
    (a, ra, ta), (b, rb, tb) = runs
    assert (a.entities, a.spec, a.k, a.candidates, a.ground_truth,
            a.query_text, a.entity_context) == \
        (b.entities, b.spec, b.k, b.candidates, b.ground_truth,
         b.query_text, b.entity_context)
    assert dict(a.knowns.items()) == dict(b.knowns.items())
    assert a.entities[0] == "E000"
    assert (ra.winner, ra.oracle_calls) == (rb.winner, rb.oracle_calls)
    assert ta == tb


def test_exact_scores_on_the_hotels(f1):
    assert exact_scores(f1) == [5.0, 3.0, 4.0]


def test_exact_scores_requires_complete_truth():
    from topkset import Problem, question_universe
    p = generate_synthetic(4, 2, seed=5, unknown_count=2)
    # Dropping a question the knowns could backfill would not hurt, so
    # drop one that is still open.
    open_q = unknown_questions(
        question_universe(p.spec, p.candidates), p.knowns)[0]
    trimmed = dict(p.ground_truth)
    trimmed.pop(open_q)
    partial = Problem(p.entities, p.spec, p.k, p.candidates, p.knowns,
                      trimmed, p.query_text)
    with pytest.raises(ValidationError, match="ground truth missing"):
        exact_scores(partial)


class TestSmallestN:
    def test_exact_hits(self):
        assert _smallest_n(2, 6) == 4
        assert _smallest_n(1, 5) == 5
        assert _smallest_n(3, 10) == 5

    def test_rounds_up(self):
        assert _smallest_n(2, 7) == 5


# The ExperimentConfig field each config-file key sets.
CONFIG_FIELDS = {"kList": "k_list", "candidateCountList": "candidate_count_list",
                 "policies": "policies", "trials": "trials",
                 "seedBase": "seed_base", "gridStep": "grid_step",
                 "unknownCount": "unknown_count", "workers": "workers"}


class TestExperimentConfig:
    def test_from_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "kList": [1, 2], "candidateCountList": [4],
            "policies": ["entrred-dep", "random"],
            "trials": 2, "seedBase": 3, "gridStep": 0.25,
            "unknownCount": 5, "workers": 2}))
        cfg = ExperimentConfig.from_json(p)
        assert cfg.k_list == (1, 2)
        assert cfg.candidate_count_list == (4,)
        assert cfg.policies == (Policy.ENTRRED_DEP, Policy.RANDOM)
        assert (cfg.trials, cfg.seed_base, cfg.grid_step) == (2, 3, 0.25)
        assert cfg.unknown_count == 5
        assert cfg.workers == 2
        # Built in code from lists and names, it holds the same values.
        assert cfg == ExperimentConfig([1, 2], [4], ["entrred-dep", "random"],
                                       2, 3, 0.25, 5, 2)

    def test_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "kList": [1], "candidateCountList": [3],
            "policies": ["baseline"]}))
        cfg = ExperimentConfig.from_json(p)
        assert cfg.trials == 5
        assert cfg.unknown_count is None

    def test_integral_floats_read_as_integers(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "kList": [2.0], "candidateCountList": [4.0],
            "policies": ["random"], "trials": 3.0, "seedBase": -1.0,
            "unknownCount": 0.0, "workers": 1.0}))
        cfg = ExperimentConfig.from_json(p)
        assert (cfg.k_list, cfg.candidate_count_list) == ((2,), (4,))
        assert (cfg.trials, cfg.seed_base, cfg.unknown_count,
                cfg.workers) == (3, -1, 0, 1)
        assert all(type(v) is int for v in (cfg.k_list[0], cfg.trials,
                                             cfg.seed_base, cfg.workers))

    @pytest.mark.parametrize("key, value, what", [
        ("kList", [2.5], "an integer"),
        ("candidateCountList", [False], "an integer"),
        ("trials", 1.9, "an integer"), ("seedBase", True, "an integer"),
        ("unknownCount", 0.5, "an integer"), ("workers", 2.25, "an integer"),
        ("trials", 1.5, "an integer"), ("kList", (2.5,), "an integer"),
        ("gridStep", "x", "a number"), ("policies", ["greedy"], "a policy")],
        ids=["kList", "candidateCountList", "trials", "seedBase",
             "unknownCount", "workers", "trials-half", "kList-tuple",
             "gridStep-text", "policies-unknown"])
    def test_rejects_fractions_and_bools_by_key(self, tmp_path, key, value,
                                                what):
        fields = {"kList": [2], "candidateCountList": [4],
                  "policies": ["random"], "trials": 1, key: value}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(fields))
        with pytest.raises(ValidationError, match=f"{key} .* is not {what}"):
            ExperimentConfig.from_json(p)
        # Built in code, the config checks the same fields itself, before
        # `run_experiment` creates the output directory.
        out = tmp_path / "out"
        with pytest.raises(ValidationError, match=f"{key} .* is not {what}"):
            run_experiment(ExperimentConfig(
                **{CONFIG_FIELDS[k]: v for k, v in fields.items()}), out)
        assert not out.exists()

    def test_file_that_is_not_a_json_object(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('[{"kList": [2]}]')
        with pytest.raises(ValidationError, match="is not a JSON object"):
            ExperimentConfig.from_json(p)

    def test_bad_policy_name(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "kList": [1], "candidateCountList": [3],
            "policies": ["greedy"]}))
        with pytest.raises(ValidationError, match="malformed"):
            ExperimentConfig.from_json(p)

    def test_may_start_with_a_byte_order_mark(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text('\ufeff{"kList": [2], "candidateCountList": [4], '
                     '"policies": ["random"]}', encoding="utf-8")
        assert ExperimentConfig.from_json(p).k_list == (2,)

    @pytest.mark.parametrize("step, unknown, support", [
        (1 / 3333, None, 10_000), (1 / 3334, None, 10_003),
        (1e-4, 0, 1), (1e-4, 1, 10_001)],
        ids=["all-open-at-limit", "all-open-over", "none-open",
             "one-open-over"])
    def test_bounds_the_dep_support(self, step, unknown, support):
        """A k=2 cell has three questions of 1/step quanta each, a k=1
        cell one; at most `unknown_count` of them are open."""
        cfg = dict(k_list=(1, 2), candidate_count_list=(4,),
                   grid_step=step, unknown_count=unknown)
        ExperimentConfig(policies=(Policy.ENTRRED_IND, Policy.RANDOM,
                                   Policy.BASELINE), **cfg)
        if support <= DEP_MAX_SUPPORT:
            ExperimentConfig(policies=(Policy.ENTRRED_DEP,), **cfg)
        else:
            with pytest.raises(ValidationError,
                               match=f"could reach a candidate support of "
                                     f"{support} points, above the limit of "
                                     f"{DEP_MAX_SUPPORT}"):
                ExperimentConfig(policies=(Policy.ENTRRED_DEP,), **cfg)

    def test_bounds_the_candidate_count(self):
        ExperimentConfig((2,), (4, MAX_CANDIDATES), (Policy.RANDOM,))
        with pytest.raises(ValidationError,
                           match=f"candidate count {MAX_CANDIDATES + 1} is "
                                 f"above the limit of {MAX_CANDIDATES} per "
                                 f"solve; .*--candidates"):
            ExperimentConfig((2,), (4, MAX_CANDIDATES + 1), (Policy.RANDOM,))

    @pytest.mark.parametrize("k, asked", [(706, 249571), (707, 250278)])
    def test_bounds_the_questions_of_a_k_set(self, k, asked):
        """k + C(k, 2) questions of the default spec per k-set."""
        if asked <= MAX_SET_QUESTIONS:
            ExperimentConfig((2, k), (1,), (Policy.RANDOM,))
        else:
            with pytest.raises(ValidationError,
                               match=f"^a {k}-set asks {asked} questions, "
                                     f"above the limit of "
                                     f"{MAX_SET_QUESTIONS} per candidate"):
                ExperimentConfig((2, k), (1,), (Policy.RANDOM,))

    def test_a_k_set_of_too_many_questions_creates_nothing(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"kList": [2000], "candidateCountList": [1],
                                 "policies": ["random"]}))
        with pytest.raises(ValidationError) as err:
            ExperimentConfig.from_json(p)
        assert str(err.value).startswith(
            f"malformed experiment config {p}: a 2000-set asks 2001000 "
            f"questions")

    @pytest.mark.parametrize("key", ["kList", "candidateCountList",
                                     "policies"])
    def test_a_missing_key_is_named(self, tmp_path, key):
        fields = {"kList": [2], "candidateCountList": [4],
                  "policies": ["random"]}
        del fields[key]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(fields))
        with pytest.raises(ValidationError) as err:
            ExperimentConfig.from_json(p)
        assert str(err.value) == \
            f"malformed experiment config {p}: lacks '{key}'"

    def test_rejects_empty_lists_and_zero_trials(self):
        with pytest.raises(ValidationError):
            ExperimentConfig((), (3,), (Policy.RANDOM,))
        with pytest.raises(ValidationError):
            ExperimentConfig((1,), (3,), (Policy.RANDOM,), trials=0)


SMALL_CFG = dict(
    k_list=(2,), candidate_count_list=(4,),
    policies=(Policy.ENTRRED_DEP, Policy.ENTRRED_IND, Policy.RANDOM,
              Policy.BASELINE),
    trials=2, seed_base=1, unknown_count=4)


class TestRunExperiment:
    def test_writes_three_csvs_with_expected_shape(self, tmp_path, make_clock):
        paths = run_experiment(ExperimentConfig(**SMALL_CFG),
                               tmp_path / "out", clock=make_clock())
        assert set(paths) == {"runs", "summary", "ratios"}
        with open(paths["runs"]) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2 * 4
        assert set(rows[0]) == {"dataset", "k", "M", "policy", "trial",
                                "oracleCalls", "wallNanos", "boundsNanos",
                                "probNanos", "selectNanos", "oracleNanos",
                                "recallBit"}
        assert all(r["recallBit"] == "1" for r in rows)
        with open(paths["summary"]) as fh:
            summary = list(csv.DictReader(fh))
        assert len(summary) == 4
        assert all(s["recallRate"] == "1" for s in summary)
        with open(paths["ratios"]) as fh:
            ratios = list(csv.DictReader(fh))
        assert len(ratios) == 1
        assert float(ratios[0]["callsRandomOverEntrredInd"]) > 0
        assert float(ratios[0]["timeDepOverInd"]) > 0

    def test_byte_identical_across_runs(self, tmp_path, make_clock):
        cfg = ExperimentConfig(**SMALL_CFG)
        a = run_experiment(cfg, tmp_path / "a", clock=make_clock())
        b = run_experiment(cfg, tmp_path / "b", clock=make_clock())
        for name in ("runs", "summary", "ratios"):
            assert a[name].read_bytes() == b[name].read_bytes()

    def test_workers_do_not_change_the_outcome_columns(self, tmp_path,
                                                       make_clock):
        serial = run_experiment(ExperimentConfig(**SMALL_CFG),
                                tmp_path / "serial", clock=make_clock())
        threaded = run_experiment(
            ExperimentConfig(**{**SMALL_CFG, "workers": 3}),
            tmp_path / "threaded", clock=make_clock())

        def outcome(path):
            with open(path) as fh:
                return [(r["k"], r["M"], r["policy"], r["trial"],
                         r["oracleCalls"], r["recallBit"])
                        for r in csv.DictReader(fh)]

        assert outcome(serial["runs"]) == outcome(threaded["runs"])

    def test_every_cell_gets_its_own_seed(self, tmp_path, monkeypatch):
        """Cells that the old formula, seedBase * 10**6 + k * 10**5 +
        M * 1000 + trial, seeded alike get RNG streams of their own."""
        tiny = generate_synthetic(3, 2, seed=0, unknown_count=0)
        seeds = []

        def capture(n, k, candidate_cap, seed, **kwargs):
            seeds.append(seed)
            return tiny

        monkeypatch.setattr(harness, "generate_synthetic", capture)

        def cell_seeds(k_list, counts, trials=1, seed_base=0):
            seeds.clear()
            run_experiment(ExperimentConfig(k_list, counts, (Policy.RANDOM,),
                                            trials, seed_base),
                           tmp_path / "out")
            assert len(set(seeds)) == len(seeds)
            return list(seeds)

        def apart(a, b):
            return random.Random(a).getstate() != random.Random(b).getstate()

        # (k=2, M=200) and (k=3, M=100): both 400000 before.
        k2_m200, k3_m100 = cell_seeds((2, 3), (200, 100))[::3]
        assert apart(k2_m200, k3_m100)
        # (k=3, M=11, trial 1000) and (k=3, M=12, trial 0): both 312000.
        seeds_3 = cell_seeds((3,), (11, 12), trials=1001)
        assert apart(seeds_3[1000], seeds_3[1001])
        # seedBase -1 at (k=2, M=4) gave -796000, which seeds as 796000,
        # seedBase 0 at (k=7, M=96).
        [below] = cell_seeds((2,), (4,), seed_base=-1)
        [above] = cell_seeds((7,), (96,), seed_base=0)
        assert apart(below, above)
        assert min(seeds_3 + [k2_m200, k3_m100, below, above]) >= 0

    @pytest.mark.parametrize("workers, cpus, threads", [
        (100_000, 4, 4), (3, 8, 3), (8, 8, 6), (5, None, 1), (1, 8, 1)])
    def test_threads_are_capped_by_cores_and_cells(
            self, tmp_path, monkeypatch, workers, cpus, threads):
        """min(workers, os.cpu_count() or 1, cells) threads over 6 cells,
        and no pool for one: a stub pool records its size and maps in this
        thread."""
        import concurrent.futures
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                            SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        before = threading.active_count()
        cfg = {**SMALL_CFG, "policies": (Policy.RANDOM,), "trials": 6,
               "workers": workers}
        run_experiment(ExperimentConfig(**cfg), tmp_path / "out")
        assert sizes == ([threads] if threads > 1 else [])
        assert threading.active_count() == before

    def test_unwritable_output_dir(self, tmp_path, make_clock):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        with pytest.raises(ValidationError, match="not writable"):
            run_experiment(ExperimentConfig(**SMALL_CFG), target,
                           clock=make_clock())
