"""Dataset loading, synthetic generation and the experiment runner."""

import csv
import json
import shutil
from pathlib import Path

import pytest

from topkset import (ExperimentConfig, Policy, Question, ValidationError,
                     generate_synthetic, load_problem, run_experiment,
                     unknown_questions, write_bundle)
from topkset.harness import (_smallest_n, default_spec, exact_scores,
                             load_spec)

from .conftest import hotel_problem

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
        assert spec.aggregation == "sum"

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

    def test_candidate_row_with_unknown_entity(self, tmp_path):
        ds = _broken_copy(tmp_path)
        _append(ds / "candidates.csv", "HNY,MLN,ZZZ")
        with pytest.raises(ValidationError, match="unknown entity"):
            load_problem(ds, 3)

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

    def test_defaults(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({
            "constructs": [{"name": "rel", "arity": 1}],
            "range": [0, 1], "step": 0.25}))
        spec = load_spec(p)
        assert spec.constructs[0].weight == 1.0
        assert spec.aggregation == "sum"


def test_default_spec_shape():
    spec = default_spec()
    assert [c.name for c in spec.constructs] == ["rel", "div"]
    assert spec.grid_step == 0.5
    assert default_spec(0.25).n_grid_values == 5


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

    def test_known_fraction_one_reveals_everything(self):
        from topkset import question_universe
        p = generate_synthetic(5, 2, seed=1, known_fraction=1.0)
        open_qs = unknown_questions(
            question_universe(p.spec, p.candidates), p.knowns)
        assert open_qs == ()

    def test_candidate_cap(self):
        p = generate_synthetic(8, 3, candidate_cap=5, seed=0)
        assert len(p.candidates) == 5

    def test_rejects_n_below_k(self):
        with pytest.raises(ValidationError):
            generate_synthetic(2, 3)

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

    def test_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "kList": [1], "candidateCountList": [3],
            "policies": ["baseline"]}))
        cfg = ExperimentConfig.from_json(p)
        assert cfg.trials == 5
        assert cfg.unknown_count is None

    def test_bad_policy_name(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "kList": [1], "candidateCountList": [3],
            "policies": ["greedy"]}))
        with pytest.raises(ValidationError, match="malformed"):
            ExperimentConfig.from_json(p)

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

    def test_unwritable_output_dir(self, tmp_path, make_clock):
        target = tmp_path / "blocked"
        target.write_text("a file, not a directory")
        with pytest.raises(ValidationError, match="not writable"):
            run_experiment(ExperimentConfig(**SMALL_CFG), target,
                           clock=make_clock())
