"""The spec-first API surface.

The deprecated model-name sweep calls, ``run_full_study`` keywords,
``repro.core.planner`` functions and the ``sim.tracing.Trace`` view are
gone; what remains here pins the spec-first entry points.
"""

import pytest

from repro.core import ExperimentSpec, StudySpec, default_precision_for
from repro.core.study import run_full_study
from repro.core.sweeps import (
    DEFAULT_GEN,
    batch_size_sweep_specs,
    power_mode_sweep_specs,
    quantization_sweep_specs,
    seq_len_sweep_specs,
)
from repro.quant.dtypes import Precision


class TestForModel:
    def test_fills_per_model_default_precision(self):
        spec = ExperimentSpec.for_model("deepq")
        assert spec.precision is default_precision_for("deepq")
        assert spec.gen == DEFAULT_GEN

    def test_overrides_pass_through(self):
        spec = ExperimentSpec.for_model("llama", batch_size=4, n_runs=2,
                                        precision=Precision.INT8)
        assert (spec.batch_size, spec.n_runs) == (4, 2)
        assert spec.precision is Precision.INT8


class TestLegacySweepCalls:
    """The model-name sweep form is gone: sweeps take a spec only."""

    @pytest.mark.parametrize("builder", [
        batch_size_sweep_specs, seq_len_sweep_specs,
        quantization_sweep_specs, power_mode_sweep_specs,
    ])
    def test_spec_plus_legacy_kwargs_is_refused(self, builder):
        spec = ExperimentSpec.for_model("phi2", n_runs=1)
        with pytest.raises(TypeError, match="n_runs"):
            builder(spec, n_runs=3)

    def test_spec_first_call_is_warning_free(self, recwarn):
        batch_size_sweep_specs(ExperimentSpec.for_model("phi2"),
                               batch_sizes=(1,))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestRunFullStudyShim:
    """The keyword form is gone: ``run_full_study`` takes a StudySpec."""

    def test_unknown_keyword_is_a_typeerror(self):
        with pytest.raises(TypeError, match="model"):
            run_full_study(model="llama")

    def test_spec_plus_legacy_is_refused(self):
        with pytest.raises(TypeError, match="n_runs"):
            run_full_study(StudySpec(), n_runs=1)

    def test_studyspec_of_normalises_models(self):
        spec = StudySpec.of(["MS-Phi2"], n_runs=1)
        assert spec.models == ("MS-Phi2",)


class TestPlannerShims:
    """``repro.core.planner`` is gone; ``repro.plan`` is the planner."""

    def test_probe_call_is_warning_free(self, recwarn):
        from repro.plan import probe_max_batch

        probe_max_batch("phi2", Precision.FP16, upper=64)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]
