import pytest

from wncs.lti import DifferenceEqState, DiscreteTf
from wncs.models import pulse_tf_nominal
from wncs.plant import ENCODER_RESOLUTION, encoder_read, motor_step


def _motor():
    return DifferenceEqState(pulse_tf_nominal())


class TestMotor:
    def test_full_duty_startup_sequence(self):
        # strictly proper model: zero on the first sample, then
        # 0.0831 * 200 = 16.62 rev/s, then 0.0831 * 1.92 * 200
        motor = _motor()
        assert motor_step(motor, 255) == 0.0
        assert motor_step(motor, 255) == pytest.approx(16.62)
        assert motor_step(motor, 255) == pytest.approx(31.9104)

    def test_steady_state_speed(self):
        # dc gain 0.0831/0.08 over the 0..255 -> 0..200 scaling
        motor = _motor()
        speed = 0.0
        for _ in range(600):
            speed = motor_step(motor, 255)
        assert speed == pytest.approx(0.0831 / 0.08 * 200.0, rel=1e-6)

    def test_zero_duty_stays_at_rest(self):
        motor = _motor()
        assert all(motor_step(motor, 0) == 0.0 for _ in range(10))

    @pytest.mark.parametrize("duty", [-1, 256, 1000])
    def test_duty_range_enforced(self, duty):
        with pytest.raises(ValueError):
            motor_step(_motor(), duty)

    def test_custom_dynamics(self):
        # unity passthrough makes the scaling chain visible: 51/255*200 = 40
        motor = DifferenceEqState(DiscreteTf((1.0,), (1.0,), 0.02))
        assert motor_step(motor, 51) == pytest.approx(40.0)


class TestEncoderConfig:
    def test_stock_resolution(self):
        assert ENCODER_RESOLUTION == pytest.approx(2.5)


class TestEncoderRead:
    def test_exact_multiple_passes_through(self):
        assert encoder_read(100.0) == 100

    def test_fraction_floors_to_transition_count(self):
        # 102.6/2.5 = 41.04 -> 41 transitions -> round(102.5) = 103
        assert encoder_read(102.6) == 103

    def test_sub_resolution_residual_drops(self):
        assert encoder_read(101.0) == 100

    def test_below_one_transition_reads_zero(self):
        assert encoder_read(2.4) == 0

    def test_clips_to_byte_range(self):
        assert encoder_read(1000.0) == 255

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            encoder_read(-1.0)
