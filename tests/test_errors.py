"""The shared finiteness check on model fields."""
import re
from dataclasses import replace

import pytest

from upconvspec.components import FilterElement, VbgState
from upconvspec.conversion import ConversionModel, NoiseModel
from upconvspec.dispersion import CONGRUENT_LN_E, WaveguideSpec
from upconvspec.errors import DomainError

_VALID = {
    "conversion": ConversionModel(eta_max=0.3, u_per_sqrt_mw=0.17),
    "noise": NoiseModel(floor_cps=1.0, amplitude_cps=0.5, exponent=1.5),
    "vbg": VbgState(),
    "filter": FilterElement(kind="band_pass", center_nm=860.0, fwhm_nm=10.0),
    "waveguide": WaveguideSpec(),
    "sellmeier": CONGRUENT_LN_E,
}
_FIELDS = [("conversion", "u_per_sqrt_mw"),
           ("noise", "floor_cps"), ("noise", "amplitude_cps"), ("noise", "exponent"),
           ("vbg", "fwhm_nm"),
           ("filter", "center_nm"), ("filter", "edge_nm"), ("filter", "fwhm_nm"),
           ("filter", "edge_width_nm"),
           ("waveguide", "length_mm"), ("waveguide", "qpm_period_um"),
           ("sellmeier", "t_ref_c"), ("sellmeier", "t_offset_c")]
# Tuple fields, with the entry set to the bad value.
_ENTRIES = [("vbg", "tuning_range_nm", 1), ("sellmeier", "a", 0), ("sellmeier", "b", 3)]
_BAD = pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                               ids=["nan", "inf", "-inf"])


@pytest.mark.parametrize("model,field", _FIELDS, ids=[f"{m}.{f}" for m, f in _FIELDS])
@_BAD
def test_model_fields_must_be_finite(model, field, value):
    with pytest.raises(DomainError, match=f"{field} must be finite, got {value}"):
        replace(_VALID[model], **{field: value})


@pytest.mark.parametrize("model,field,k", _ENTRIES, ids=[f"{m}.{f}" for m, f, _ in _ENTRIES])
@_BAD
def test_model_tuple_fields_must_be_finite(model, field, k, value):
    entries = list(getattr(_VALID[model], field))
    entries[k] = value
    entries = tuple(entries)
    with pytest.raises(DomainError,
                       match=re.escape(f"{field} must be finite, got {entries}")):
        replace(_VALID[model], **{field: entries})
