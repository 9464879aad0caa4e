import pytest

from wncs import models


def test_motor_tf_coefficients():
    g = models.motor_ct_tf()
    assert g.num == (4.159,)
    assert g.den == (3.888, 1.0)
    assert g.dc_gain() == pytest.approx(1.0697, abs=5e-5)


def test_pulse_nominal_matches_device_rounding():
    g = models.pulse_tf_nominal()
    assert g.num == (0.0, 0.0831)
    assert g.den == (1.0, -0.92)
    assert g.sample_time == 0.02


def test_pulse_exact_is_zoh_of_motor():
    g = models.pulse_tf_exact()
    assert g.num[1] == pytest.approx(0.0800281833109718, abs=1e-12)
    assert g.den[1] == pytest.approx(-0.9251864446470165, abs=1e-12)


@pytest.mark.parametrize(
    "pulse_tf", [models.pulse_tf_nominal, models.pulse_tf_exact], ids=["nominal", "exact"]
)
def test_motor_pulse_tf_keeps_speed_nonnegative(pulse_tf):
    # y = b1*u(k-1) + p*y(k-1) with b1 > 0 and 0 < p < 1 is never negative
    # for duties in 0..255.
    g = pulse_tf()
    why = "scenario.run_closed_loop relies on this for a nonnegative speed"
    assert len(g.num) == len(g.den) == 2 and g.den[0] == 1.0, why
    assert g.num[0] == 0.0, why
    assert g.num[1] > 0.0, why
    assert -1.0 < g.den[1] < 0.0, why


def test_predictor_model_is_strictly_proper():
    g = models.predictor_model_tf()
    assert g.num[0] == 0.0
    assert g.num[1] == pytest.approx(0.0832)


def test_span_constants():
    assert models.DUTY_SPAN == 255
    assert models.SPEED_SPAN_RPS == 200.0
    assert models.SAMPLE_TIME == 0.02
