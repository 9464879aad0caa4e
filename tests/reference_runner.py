"""The closed loop stepped through the per-object references.

run_closed_loop_reference is scenario.run_closed_loop as it was before the
runner stepped its recurrences as local floats: the motor is a
DifferenceEqState advanced by plant.motor_step, and the compensator is a
SmithPredictor that previews, commits and takes every delay estimate
through update_delay_estimate. The timing plane is the runner's own. The
tests hold the runner's RunRecord exactly equal to this one's.
"""

import numpy as np

from wncs import scenario
from wncs.delay_approx import ApproxKind
from wncs.delay_est import estimate_stream
from wncs.lti import DifferenceEqState
from wncs.models import DUTY_SPAN, SAMPLE_TIME, SPEED_SPAN_RPS, pulse_tf_exact, pulse_tf_nominal
from wncs.pid import ActuatorLimits, PiGains, PiState, pi_step
from wncs.plant import encoder_miscounts, encoder_read, motor_step
from wncs.smith import SmithConfig, SmithPredictor


def run_closed_loop_reference(config):
    config.validate()
    t_ms = round(SAMPLE_TIME * 1000.0)
    n_ticks = round(config.duration_s / SAMPLE_TIME)

    seed_c2p, seed_p2c, seed_enc = np.random.SeedSequence(config.seed).spawn(3)
    p2c_deliver, p2c_drained, send_ticks, c2p_drained = scenario._link_schedule(
        config, n_ticks, t_ms, seed_c2p, seed_p2c
    )
    estimates = estimate_stream(p2c_deliver, p2c_drained, send_ticks, t_ms)
    times = np.arange(n_ticks, dtype=np.int64) * t_ms
    setpoint = scenario._setpoint_column(config, times)
    miscounts = encoder_miscounts(config.encoder_jitter, n_ticks, np.random.default_rng(seed_enc))

    motor = DifferenceEqState(
        pulse_tf_nominal() if config.plant_model == "nominal" else pulse_tf_exact()
    )
    gains = PiGains(kp=config.kp, ki=config.ki, sample_time=SAMPLE_TIME)
    pi_state = PiState()
    limits = ActuatorLimits(min_duty=config.min_duty, max_duty=config.max_duty)

    predictor = None
    if config.smith_mode != "off":
        predictor = SmithPredictor(
            SmithConfig(
                mode=config.smith_mode,
                tau_s=config.smith_tau_ms / 1000.0,
                kind=ApproxKind(config.smith_kind),
                smoothing=config.smith_smoothing,
            )
        )
    adaptive = config.smith_mode == "adaptive"
    resend = config.vacant_policy == "resend"

    speed_true = []
    meas_sent = []
    duties = [0]
    last_meas = 0.0
    duty_out = 0
    drained = 0

    for applied, now_drained, tm, sp_now, miscount in zip(
        c2p_drained.tolist(),
        p2c_drained.tolist(),
        estimates.tm_ms.tolist(),
        setpoint.tolist(),
        miscounts.tolist(),
    ):
        speed = motor_step(motor, duties[applied])
        speed_true.append(speed)
        meas_sent.append(encoder_read(speed, miscount))

        arrived = now_drained > drained
        drained = now_drained
        if arrived:
            last_meas = float(meas_sent[drained - 1])
        if arrived or resend:
            if adaptive:
                predictor.update_delay_estimate(tm)
            correction = predictor.preview() * SPEED_SPAN_RPS if predictor else 0.0
            error = sp_now - (last_meas + correction)
            duty_out = pi_step(gains, pi_state, limits, error)
            duties.append(duty_out)
        if predictor is not None:
            predictor.commit(duty_out / DUTY_SPAN)

    assert len(duties) - 1 == send_ticks.size
    frame_stats = {
        name: {"sent": sent, "delivered": delivered, "in_flight": sent - delivered}
        for name, sent, delivered in (
            ("ctrl_to_plant", send_ticks.size, int(c2p_drained[-1])),
            ("plant_to_ctrl", n_ticks, int(p2c_drained[-1])),
        )
    }
    speed_meas = np.concatenate(([0.0], meas_sent))[p2c_drained]
    sent_by = np.searchsorted(send_ticks, np.arange(n_ticks), side="right")
    return scenario.RunRecord(
        t_ms=times,
        setpoint=setpoint,
        speed_meas=speed_meas,
        speed_true=np.array(speed_true),
        duty=np.array(duties, dtype=np.int64)[sent_by],
        tm_ms=estimates.tm_ms,
        codes=estimates.codes,
        rtt_ms=estimates.rtt_ms,
        frame_stats=frame_stats,
    )
