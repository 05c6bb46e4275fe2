"""The shared finiteness check on model fields."""
from dataclasses import replace

import pytest

from upconvspec.components import FilterElement, VbgState
from upconvspec.conversion import ConversionModel, NoiseModel
from upconvspec.dispersion import WaveguideSpec
from upconvspec.errors import DomainError

_VALID = {
    "conversion": ConversionModel(eta_max=0.3, u_per_sqrt_mw=0.17),
    "noise": NoiseModel(floor_cps=1.0, amplitude_cps=0.5, exponent=1.5),
    "vbg": VbgState(),
    "filter": FilterElement(kind="band_pass", center_nm=860.0, fwhm_nm=10.0),
    "waveguide": WaveguideSpec(),
}
_FIELDS = [("conversion", "u_per_sqrt_mw"),
           ("noise", "floor_cps"), ("noise", "amplitude_cps"), ("noise", "exponent"),
           ("vbg", "fwhm_nm"),
           ("filter", "center_nm"), ("filter", "edge_nm"), ("filter", "fwhm_nm"),
           ("filter", "edge_width_nm"),
           ("waveguide", "length_mm"), ("waveguide", "qpm_period_um")]


@pytest.mark.parametrize("model,field", _FIELDS, ids=[f"{m}.{f}" for m, f in _FIELDS])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_model_fields_must_be_finite(model, field, value):
    with pytest.raises(DomainError, match=f"{field} must be finite, got {value}"):
        replace(_VALID[model], **{field: value})
