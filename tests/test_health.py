"""Numerical-health monitors: catalogue, report mechanics, model overlay.

The deliberate-violation tests are the layer's acceptance gate: skipping
the Eq. 16 rescale must flip ``volume_preservation`` to ``fail``, and a
report carrying that verdict must make ``check_regression.py`` exit
non-zero.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

import repro.core.batch
from repro.core.batch import BatchAligner
from repro.core.geoalign import GeoAlign
from repro.core.reference import Reference
from repro.errors import ValidationError
from repro.obs import (
    Trace,
    all_checks,
    evaluate_health,
    model_gauges,
    register_check,
)
from repro.obs.health import (
    FAIL,
    OK,
    SKIP,
    WARN,
    CheckResult,
    HealthCheck,
    HealthReport,
    _REGISTRY,
)
from repro.partitions.dm import DisaggregationMatrix

SRC2 = ["s0", "s1"]
TGT2 = ["t0", "t1"]


def _session(gauges=None, counters=None, name="t"):
    """A finished Trace shell with the given registries."""
    session = Trace(name)
    session.started = 0.0
    session.ended = 1.0
    session.gauges = dict(gauges or {})
    session.counters = dict(counters or {})
    return session


def _check(direction="high", warn=1.0, fail=10.0, value=0.0):
    return HealthCheck(
        name="probe",
        description="test probe",
        formula="x",
        direction=direction,
        warn=warn,
        fail=fail,
        extract=lambda session: value,
    )


class TestHealthCheck:
    def test_direction_validated(self):
        with pytest.raises(ValidationError):
            _check(direction="sideways")

    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, OK), (1.0, OK), (1.5, WARN), (10.0, WARN), (11.0, FAIL)],
    )
    def test_high_direction_strict_thresholds(self, value, expected):
        result = _check(value=value).evaluate(_session())
        assert result.status == expected
        assert result.value == value

    @pytest.mark.parametrize(
        "value,expected",
        [(5.0, OK), (2.0, OK), (1.5, WARN), (0.5, FAIL)],
    )
    def test_low_direction_strict_thresholds(self, value, expected):
        check = HealthCheck(
            name="probe",
            description="",
            formula="",
            direction="low",
            warn=2.0,
            fail=1.0,
            extract=lambda session: value,
        )
        assert check.evaluate(_session()).status == expected

    @pytest.mark.parametrize(
        "direction,warn,fail,expected",
        [
            ("high", 1.0, 10.0, FAIL),
            ("low", 10.0, 1.0, FAIL),
            ("high", 1.0, None, WARN),
            ("low", 1.0, None, WARN),
        ],
    )
    def test_nan_is_the_worst_value(self, direction, warn, fail, expected):
        check = HealthCheck(
            name="probe",
            description="",
            formula="",
            direction=direction,
            warn=warn,
            fail=fail,
            extract=lambda session: float("nan"),
        )
        assert check.evaluate(_session()).status == expected

    def test_none_threshold_never_crosses(self):
        result = _check(warn=None, fail=None, value=1e30).evaluate(_session())
        assert result.status == OK

    def test_none_value_skips(self):
        check = _check()
        check = HealthCheck(
            name="probe",
            description="",
            formula="",
            direction="high",
            warn=1.0,
            fail=2.0,
            extract=lambda session: None,
        )
        result = check.evaluate(_session())
        assert result.status == SKIP
        assert result.value is None


class TestCheckResult:
    def test_dict_round_trip(self):
        result = _check(value=3.0).evaluate(_session())
        assert CheckResult.from_dict(result.to_dict()) == result

    def test_dict_round_trip_with_nones(self):
        check = HealthCheck(
            name="probe",
            description="d",
            formula="f",
            direction="low",
            warn=None,
            fail=None,
            extract=lambda session: None,
        )
        result = check.evaluate(_session())
        assert CheckResult.from_dict(result.to_dict()) == result


class TestHealthReport:
    def _report(self, statuses):
        checks = [
            CheckResult(
                name=f"c{i}",
                status=status,
                value=1.0,
                warn=None,
                fail=None,
                direction="high",
                description=f"check {i}",
                formula="x",
            )
            for i, status in enumerate(statuses)
        ]
        return HealthReport("t", checks)

    def test_empty_report_is_ok(self):
        report = HealthReport("t", [])
        assert report.status == OK
        assert report.ok

    def test_skips_and_oks_aggregate_to_ok(self):
        assert self._report([SKIP, OK, SKIP]).status == OK

    def test_warn_and_fail_aggregation(self):
        assert self._report([OK, WARN]).status == WARN
        report = self._report([OK, WARN, FAIL])
        assert report.status == FAIL
        assert not report.ok
        assert [c.name for c in report.failures] == ["c2"]
        assert [c.name for c in report.warnings] == ["c1"]

    def test_warnings_do_not_break_ok(self):
        assert self._report([OK, WARN]).ok

    def test_verdicts_and_get(self):
        report = self._report([OK, FAIL])
        assert report.verdicts() == {"c0": OK, "c1": FAIL}
        assert report.get("c1").status == FAIL
        with pytest.raises(KeyError):
            report.get("nope")

    def test_dict_round_trip(self):
        report = self._report([OK, WARN, FAIL])
        rebuilt = HealthReport.from_dict(report.to_dict())
        assert rebuilt.trace_name == report.trace_name
        assert rebuilt.checks == report.checks
        assert rebuilt.status == report.status

    def test_from_dict_rejects_non_list_checks(self):
        with pytest.raises(ValidationError):
            HealthReport.from_dict({"trace": "t", "checks": "oops"})

    def test_to_text_table_and_detail_lines(self):
        text = self._report([OK, WARN, FAIL]).to_text()
        assert "verdict FAIL" in text
        assert "1 ok, 1 warn, 1 fail, 0 skip" in text
        for name in ("c0", "c1", "c2"):
            assert name in text
        assert "WARN c1: check 1" in text
        assert "FAIL c2: check 2" in text


class TestCatalogue:
    def test_expected_checks_registered(self):
        names = {check.name for check in all_checks()}
        assert {
            "volume_preservation",
            "source_coverage",
            "simplex_feasibility",
            "gram_conditioning",
            "solver_fallbacks",
            "solver_convergence",
            "weight_degeneracy",
            "trace_coverage",
        } <= names

    def test_register_check_adds_and_replaces(self):
        custom = HealthCheck(
            name="custom_probe",
            description="",
            formula="",
            direction="high",
            warn=None,
            fail=1.0,
            extract=lambda session: 2.0,
        )
        try:
            register_check(custom)
            assert custom in all_checks()
            report = evaluate_health(_session(), checks=[custom])
            assert report.get("custom_probe").status == FAIL
        finally:
            _REGISTRY.pop("custom_probe", None)

    def test_empty_trace_skips_everything(self):
        report = evaluate_health(_session())
        assert set(report.verdicts().values()) == {SKIP}
        assert report.ok


class TestExtractors:
    def test_gauge_checks_read_health_gauges(self):
        report = evaluate_health(
            _session(gauges={"health.volume_residual_max": 1e-12})
        )
        assert report.get("volume_preservation").status == OK
        assert report.get("volume_preservation").value == 1e-12

    def test_solver_rates_skip_without_solves(self):
        report = evaluate_health(
            _session(counters={"solver.fallbacks": 3.0})
        )
        assert report.get("solver_fallbacks").status == SKIP

    def test_solver_rates_divide_by_solves(self):
        report = evaluate_health(
            _session(
                counters={
                    "solver.solves": 10.0,
                    "solver.fallbacks": 2.0,
                    "solver.nonconverged": 5.0,
                }
            )
        )
        assert report.get("solver_fallbacks").status == WARN
        assert report.get("solver_fallbacks").value == pytest.approx(0.2)
        assert report.get("solver_convergence").status == FAIL

    def test_trace_coverage_skips_without_spans(self):
        assert evaluate_health(_session()).get("trace_coverage").status == SKIP


class TestModelGauges:
    def test_unfitted_model_rejected(self):
        with pytest.raises(ValidationError):
            model_gauges(GeoAlign())
        with pytest.raises(ValidationError):
            model_gauges(BatchAligner())

    def test_scalar_model_gauges(self, paired_references):
        objective = np.arange(1.0, 7.0)
        model = GeoAlign()
        model.fit_predict(paired_references, objective)
        gauges = model_gauges(model)
        assert gauges["health.simplex_violation_max"] <= 1e-9
        assert gauges["health.volume_residual_max"] <= 1e-9
        assert 0.0 <= gauges["health.uncovered_mass_max"] <= 1.0
        assert 1.0 <= gauges["health.effective_references_min"] <= 2.0
        assert gauges["health.gram_condition_max"] >= 1.0

    def test_geoalign_is_audited_as_its_one_row_batch(
        self, paired_references
    ):
        objective = np.arange(1.0, 7.0)
        scalar = GeoAlign().fit(paired_references, objective)
        batch = BatchAligner().fit(
            paired_references, objective[np.newaxis, :]
        )
        gauges = model_gauges(scalar)
        assert gauges == model_gauges(batch)
        assert "health.stack_density" in gauges

    @pytest.mark.parametrize("engine", ["batch", "geoalign"])
    def test_audit_after_predict_dms_reads_ok(
        self, paired_references, engine
    ):
        # Weights [0, 1]: the one-row value cache holds exact zeros, and
        # wrapping a row as a DM must not compact the cache in place.
        objective = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 5.0])
        if engine == "batch":
            model = BatchAligner().fit(
                paired_references, objective[np.newaxis, :]
            )
            model.predict_dms()
        else:
            model = GeoAlign().fit(paired_references, objective)
            model.predict_dm()
        report = evaluate_health(_session(), model=model)
        assert report.get("volume_preservation").status == OK
        assert report.get("volume_preservation").value <= 1e-12

    def test_objective_only_in_uncovered_rows(self):
        # No reference covers s1, where all of the objective sits: the
        # residual over covered rows is 0 and the coverage check fires.
        dm = DisaggregationMatrix([[1.0, 0.0], [0.0, 0.0]], SRC2, TGT2)
        model = GeoAlign().fit([Reference("only", [1.0, 0.0], dm)], [0, 3])
        gauges = model_gauges(model)
        assert gauges["health.volume_residual_max"] == 0.0
        assert gauges["health.uncovered_mass_max"] == 1.0

    def test_batch_model_gauges(self, paired_references):
        objectives = np.vstack([np.arange(1.0, 7.0), np.ones(6)])
        model = BatchAligner()
        model.fit_predict(paired_references, objectives)
        gauges = model_gauges(model)
        assert gauges["health.simplex_violation_max"] <= 1e-9
        assert gauges["health.volume_residual_max"] <= 1e-9
        assert gauges["health.gram_condition_max"] >= 1.0

    def test_gauges_match_trace_emission(
        self, paired_references, capture_trace
    ):
        """The fit-time gauges and the model recomputation agree."""
        objective = np.arange(1.0, 7.0)
        model = GeoAlign()
        with capture_trace() as session:
            model.fit_predict(paired_references, objective)
        recomputed = model_gauges(model)
        for name in (
            "health.simplex_violation_max",
            "health.gram_condition_max",
            "health.effective_references_min",
            "health.volume_residual_max",
            "health.uncovered_mass_max",
        ):
            assert session.gauges[name] == pytest.approx(
                recomputed[name], rel=1e-9, abs=1e-12
            ), name


class TestEvaluateHealth:
    def test_live_fit_reports_healthy(self, paired_references, capture_trace):
        with capture_trace() as session:
            GeoAlign().fit_predict(paired_references, np.arange(1.0, 7.0))
        report = evaluate_health(session)
        assert report.ok
        assert report.get("volume_preservation").status == OK
        assert report.get("simplex_feasibility").status == OK

    def test_model_overlay_overrides_trace_gauges(self, paired_references):
        model = GeoAlign()
        model.fit_predict(paired_references, np.arange(1.0, 7.0))
        session = _session(gauges={"health.volume_residual_max": 99.0})
        assert not evaluate_health(session).ok
        overlaid = evaluate_health(session, model=model)
        assert overlaid.get("volume_preservation").status == OK

    def test_overlay_does_not_mutate_the_session(self, paired_references):
        model = GeoAlign()
        model.fit_predict(paired_references, np.arange(1.0, 7.0))
        session = _session(gauges={"unrelated": 1.0})
        evaluate_health(session, model=model)
        assert session.gauges == {"unrelated": 1.0}

    def test_checks_subset(self):
        report = evaluate_health(_session(), checks=list(all_checks())[:2])
        assert len(report.checks) == 2

    def test_nan_volume_residual_fails_the_run(self, capture_trace):
        # Subnormal reference rows overflow the Eq. 16 factors: the
        # prediction keeps 2.5 of the objective's 3.5 and the residual
        # gauge is NaN, which must read as a failure, not as ok.
        src = ["s0", "s1", "s2"]
        alpha = Reference(
            "alpha",
            [1.0, 1.0, 1e-310],
            DisaggregationMatrix([[1, 0], [0, 1], [0, 0]], src, TGT2),
        )
        beta = Reference(
            "beta",
            [1.0, 2.0, 1e-310],
            DisaggregationMatrix([[1, 0], [1, 1], [0, 0]], src, TGT2),
        )
        with capture_trace() as session, np.errstate(all="ignore"):
            GeoAlign(denominator="source-vectors").fit_predict(
                [alpha, beta], [1.0, 1.5, 1.0]
            )
        assert np.isnan(session.gauges["health.volume_residual_max"])
        report = evaluate_health(session)
        assert report.get("volume_preservation").status == FAIL
        assert not report.ok


# ---------------------------------------------------------------------------
# acceptance: a deliberately broken Eq. 16 rescale must fail the gate
# ---------------------------------------------------------------------------

_GATE = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks"
    / "check_regression.py"
)


def _load_gate():
    spec = importlib.util.spec_from_file_location("cr_accept", _GATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _broken_rescale_factors(objectives, denominators):
    """Skip the Eq. 16 volume-preserving rescale entirely."""
    return np.ones_like(denominators)


class TestDeliberateViolation:
    def _broken_report(self, monkeypatch, paired_references, capture_trace):
        monkeypatch.setattr(
            repro.core.batch, "_rescale_factors", _broken_rescale_factors
        )
        with capture_trace("broken") as session:
            GeoAlign().fit_predict(paired_references, np.arange(1.0, 7.0))
        return evaluate_health(session)

    def test_skipped_rescale_fails_volume_check(
        self, monkeypatch, paired_references, capture_trace
    ):
        report = self._broken_report(
            monkeypatch, paired_references, capture_trace
        )
        assert report.get("volume_preservation").status == FAIL
        assert report.status == FAIL
        assert not report.ok

    def test_check_regression_gates_on_the_fail_verdict(
        self, monkeypatch, tmp_path, paired_references, capture_trace, capsys
    ):
        report = self._broken_report(
            monkeypatch, paired_references, capture_trace
        )
        health_file = tmp_path / "health.json"
        health_file.write_text(json.dumps(report.to_dict()))
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        gate = _load_gate()
        code = gate.main([str(base), str(cand), "--health", str(health_file)])
        assert code == 1
        out = capsys.readouterr().out
        assert "volume_preservation FAILED" in out

    def test_healthy_report_passes_the_gate(
        self, tmp_path, paired_references, capture_trace, capsys
    ):
        with capture_trace("healthy") as session:
            GeoAlign().fit_predict(paired_references, np.arange(1.0, 7.0))
        report = evaluate_health(session)
        assert report.ok
        health_file = tmp_path / "health.json"
        health_file.write_text(json.dumps(report.to_dict()))
        base = tmp_path / "base"
        cand = tmp_path / "cand"
        base.mkdir()
        cand.mkdir()
        gate = _load_gate()
        code = gate.main([str(base), str(cand), "--health", str(health_file)])
        assert code == 0
