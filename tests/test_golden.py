"""Same numbers, bit for bit: kernels, sampled counts and deconvolve
estimates against tests/golden.json (see tests/golden.py, which regenerates
it).  The a01-a10 lines are compared by the acceptance tests themselves."""
import numpy as np

import golden


def test_values_match_the_golden_file():
    want, got = golden.load(), golden.compute()
    assert sorted(want["acceptance"]) == [f"a{i:02d}" for i in range(1, 11)]
    for section in ("kernels", "counts", "deconvolve"):
        assert got[section] == want[section], section
    # top-hat builds call libm's erfc, whose last bits may differ by platform
    for name, build in got["top_hat"].items():
        ref = want["top_hat"][name]
        assert build["band_start"] == ref["band_start"], name
        np.testing.assert_allclose(build["rows"], ref["rows"], rtol=golden.TOP_HAT_RTOL,
                                   atol=0.0, err_msg=name)
