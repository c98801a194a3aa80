"""An array of points through every public function of a point: each
point's scalar-call result, or a DomainError, never a bare exception."""

import numpy as np
import pytest

from qultra import (DomainError, DqResiduals, SpectralPoint, UltraParams,
                    UltraValue, apply_dq, bilateral_cn_continued,
                    bilateral_cn_psi_form, classical_cn, dq_action_residual,
                    linearization_residual, recurrence_gap, recurrence_residual,
                    symmetry_gap, symmetry_residual)
from qultra.ultraspherical import in_direct_region
from qultra.verify import CONFIG_DEFAULTS

ARRAY = SpectralPoint(np.exp(1j * np.array([0.4, 1.0, 2.2])))
POINTS = [SpectralPoint(z) for z in ARRAY.z.tolist()]

# given values of C_{n-1}, C_n, C_{n+1} (and of the mirrored C_{-n}) per point
GIVEN = np.array([[0.3 + 0.1j, -1.2 + 0.4j, 2.5 - 0.7j],
                  [1.1 - 0.2j, 0.7 + 0.9j, -0.4 + 0.05j],
                  [-0.6 + 1.3j, 0.2 - 0.1j, 1.9 + 0.3j]])

DEFAULTS = tuple(CONFIG_DEFAULTS[k] for k in ("q", "beta", "gamma"))
# the unit circle, its q^{+-1/2} shifts and the lowered family's p are all
# off the direct annulus here: every bilateral row is continued
CONTINUED = (0.5, 0.4, 0.7)

# each function of a point: its calls, given the point p and, at point i
# of a scalar call (or every point, i = slice(None)), the given values
CALLS = {
    "recurrence_residual": [
        lambda p, prm, i: recurrence_residual("classical", 2, p, prm),
        lambda p, prm, i: recurrence_residual("bilateral", -1, p, prm)],
    "symmetry_residual": [lambda p, prm, i: symmetry_residual(2, p, prm)],
    "recurrence_gap": [lambda p, prm, i: recurrence_gap(1, p, prm, *GIVEN[:, i])],
    "symmetry_gap": [lambda p, prm, i: symmetry_gap(-2, prm, *GIVEN[:2, i])],
    "linearization_residual": [
        lambda p, prm, i: linearization_residual(2, 3, p, prm.beta, prm.q),
        lambda p, prm, i: linearization_residual([0, 2, 4], [3, 2, 1], p, prm.beta, prm.q)],
    "bilateral_cn_psi_form": [lambda p, prm, i: bilateral_cn_psi_form(1, p, prm)],
    "bilateral_cn_continued": [lambda p, prm, i: bilateral_cn_continued(-2, p.z, prm)],
    "apply_dq": [
        lambda p, prm, i: apply_dq(lambda sp: sp.x ** 3, p, prm.q),
        lambda p, prm, i: apply_dq(lambda sp: np.array([classical_cn(k, sp, prm.beta, prm.q)
                                                        for k in range(4)]), p, prm.q)],
    "dq_action_residual": [
        lambda p, prm, i: dq_action_residual("classical", 3, p, prm),
        lambda p, prm, i: dq_action_residual("classical", range(1, 7), p, prm),
        lambda p, prm, i: dq_action_residual("bilateral", -1, p, prm),
        lambda p, prm, i: dq_action_residual("bilateral", range(-4, 5), p, prm)],
    "classical_cn": [lambda p, prm, i: classical_cn(5, p, prm.beta, prm.q)],
}

# the calls whose rows at p come from the direct sum at the defaults: a
# row of an array call may round differently there (bilateral_cn_range)
DIRECT_AT_DEFAULTS = {("recurrence_residual", 1), ("symmetry_residual", 0)}


def _parts(result):
    """The values and the term count of a result, as arrays."""
    if isinstance(result, UltraValue):
        return np.asarray(result.value), result.truncation_terms
    if isinstance(result, DqResiduals):
        return result.residual, result.terms_used
    return np.asarray(result), None


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("qbg", [DEFAULTS, CONTINUED], ids=["defaults", "continued"])
def test_an_array_point_gives_each_points_scalar_result(name, qbg):
    q, beta, gamma = qbg
    params = UltraParams(beta, gamma, q)
    for j, call in enumerate(CALLS[name]):
        try:
            got = call(ARRAY, params, slice(None))
        except DomainError as exc:
            assert name == "bilateral_cn_psi_form"
            assert str(exc) == "bilateral_cn_psi_form takes one point, got an array of z"
            continue
        per = [call(p, params, i) for i, p in enumerate(POINTS)]
        values, terms = _parts(got)
        want = np.stack([_parts(r)[0] for r in per], axis=-1)
        assert values.shape == want.shape
        if terms is not None:
            assert terms == max(_parts(r)[1] for r in per)
        if qbg == DEFAULTS and (name, j) in DIRECT_AT_DEFAULTS:
            assert all(in_direct_region(p.z, beta, q) for p in POINTS)
            assert np.max(np.abs(values - want)) <= 4 * np.finfo(float).eps
        else:
            assert values.tolist() == want.tolist()


def test_psi_form_takes_one_point(params):
    # it took complex(p.z), a bare TypeError for an array of z
    with pytest.raises(DomainError, match="bilateral_cn_psi_form takes one point"):
        bilateral_cn_psi_form(0, ARRAY, params)
