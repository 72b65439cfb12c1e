"""Tests for the Table 3 function specifications."""

from __future__ import annotations

import pytest

from repro.profiles.specs import (
    FUNCTION_SPECS,
    FunctionSpec,
    get_function_spec,
    list_function_names,
    register_function_spec,
)


class TestTable3Values:
    """The published Table 3 numbers must stay intact."""

    @pytest.mark.parametrize(
        "name, exec_ms, cold_ms, input_mb, model",
        [
            ("super_resolution", 86.0, 3503.0, 2.7, "SRGAN"),
            ("segmentation", 293.0, 16510.0, 2.5, "deeplabv3_resnet50"),
            ("deblur", 319.0, 22343.0, 1.1, "DeblurGAN"),
            ("classification", 147.0, 18299.0, 0.147, "ResNet50"),
            ("background_removal", 1047.0, 3729.0, 2.5, "U2Net"),
            ("depth_recognition", 828.0, 16479.0, 0.648, "MiDaS"),
        ],
    )
    def test_table3_row(self, name, exec_ms, cold_ms, input_mb, model):
        spec = get_function_spec(name)
        assert spec.base_exec_ms == exec_ms
        assert spec.cold_start_ms == cold_ms
        assert spec.input_mb == input_mb
        assert spec.model_name == model

    def test_exactly_six_functions_registered_by_default(self):
        paper_functions = {
            "super_resolution",
            "segmentation",
            "deblur",
            "classification",
            "background_removal",
            "depth_recognition",
        }
        assert paper_functions.issubset(set(FUNCTION_SPECS))


class TestFunctionSpec:
    def test_cpu_gpu_split_sums_to_base(self):
        spec = get_function_spec("deblur")
        assert spec.cpu_ms + spec.gpu_ms == pytest.approx(spec.base_exec_ms)

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FunctionSpec(name="x", model_name="m", base_exec_ms=0.0, cold_start_ms=1.0, input_mb=1.0)
        with pytest.raises(ValueError):
            FunctionSpec(name="x", model_name="m", base_exec_ms=10.0, cold_start_ms=-1.0, input_mb=1.0)
        with pytest.raises(ValueError):
            FunctionSpec(
                name="x", model_name="m", base_exec_ms=10.0, cold_start_ms=1.0, input_mb=1.0, cpu_fraction=1.5
            )
        with pytest.raises(ValueError):
            FunctionSpec(name="", model_name="m", base_exec_ms=10.0, cold_start_ms=1.0, input_mb=1.0)

    @pytest.mark.parametrize("field", ["cold_start_ms", "input_mb", "output_mb"])
    def test_nan_rejected(self, field):
        values = {"base_exec_ms": 10.0, "cold_start_ms": 1.0, "input_mb": 1.0, field: float("nan")}
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got nan"):
            FunctionSpec(name="x", model_name="m", **values)


class TestRegistry:
    def test_get_unknown_function_lists_available(self):
        with pytest.raises(KeyError, match="super_resolution"):
            get_function_spec("definitely_not_a_function")

    def test_list_function_names_sorted(self):
        names = list_function_names()
        assert names == sorted(names)

    def test_register_custom_spec(self):
        spec = FunctionSpec(
            name="test_custom_fn", model_name="TinyNet", base_exec_ms=10.0, cold_start_ms=100.0, input_mb=0.5
        )
        register_function_spec(spec)
        try:
            assert get_function_spec("test_custom_fn") is spec
            with pytest.raises(ValueError):
                register_function_spec(spec)
            register_function_spec(spec, overwrite=True)
        finally:
            del FUNCTION_SPECS["test_custom_fn"]
