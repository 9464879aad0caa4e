"""The closed loop stepped through the per-object references.

run_closed_loop_reference is scenario.run_closed_loop as it was before the
runner stepped its recurrences as local floats: the motor is a
DifferenceEqState advanced by plant.motor_step, and the compensator is a
SmithPredictor that previews, commits and takes every delay estimate
through update_delay_estimate. The plant node reads the encoder through
plant.encoder_read on every tick and sends the byte, and the controller
takes the newest byte drained, where the runner reads only the frames the
controller takes, on the tick it takes them. The seeds are spawned for
every run, where the runner spawns them only when a leg draws. The
timing plane is the runner's own. The tests hold the runner's RunRecord
exactly equal to this one's.
"""

import numpy as np

from wncs import scenario
from wncs.delay_est import estimate_stream
from wncs.lti import DifferenceEqState
from wncs.models import DUTY_SPAN, SAMPLE_TIME, SPEED_SPAN_RPS, pulse_tf_exact, pulse_tf_nominal
from wncs.pid import PiGains, PiState, pi_step
from wncs.plant import encoder_read, motor_step
from wncs.smith import SmithPredictor


def run_closed_loop_reference(config):
    config.validate()
    t_ms = round(SAMPLE_TIME * 1000.0)
    n_ticks = round(config.duration_s / SAMPLE_TIME)

    seed_c2p, seed_p2c = np.random.SeedSequence(config.seed).spawn(2)
    link = scenario._link_schedule(
        config, n_ticks, t_ms, np.random.default_rng(seed_c2p), np.random.default_rng(seed_p2c)
    )
    send_ticks, p2c_drained, c2p_drained = link.send_ticks, link.p2c_drained, link.c2p_drained
    tm_ms, codes, rtt_ms = estimate_stream(
        link.p2c_deliver, link.p2c_arrivals, p2c_drained, send_ticks, link.sent_by, t_ms
    )
    times = np.arange(n_ticks, dtype=np.int64) * t_ms
    setpoint = scenario._setpoint_column(config, times)

    motor = DifferenceEqState(
        pulse_tf_nominal() if config.plant_model == "nominal" else pulse_tf_exact()
    )
    gains = PiGains(kp=config.kp, ki=config.ki, sample_time=SAMPLE_TIME)
    pi_state = PiState()

    predictor = None
    if config.smith_mode != "off":
        predictor = SmithPredictor(
            config.smith_mode,
            tau_s=config.smith_tau_ms / 1000.0,
            kind=config.smith_kind,
        )
    adaptive = config.smith_mode == "adaptive"
    resend = config.vacant_policy == "resend"

    speed_true = []
    meas_sent = []
    duties = [0]
    last_meas = 0.0
    duty_out = 0
    drained = 0

    for applied, now_drained, tm, sp_now in zip(
        c2p_drained.tolist(),
        p2c_drained.tolist(),
        tm_ms.tolist(),
        setpoint.tolist(),
    ):
        speed = motor_step(motor, duties[applied])
        speed_true.append(speed)
        meas_sent.append(encoder_read(speed))

        arrived = now_drained > drained
        drained = now_drained
        if arrived:
            last_meas = float(meas_sent[drained - 1])
        if arrived or resend:
            if adaptive:
                predictor.update_delay_estimate(tm)
            correction = predictor.preview() * SPEED_SPAN_RPS if predictor else 0.0
            error = sp_now - (last_meas + correction)
            duty_out = pi_step(gains, pi_state, config.min_duty, config.max_duty, error)
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
        tm_ms=tm_ms,
        codes=codes,
        rtt_ms=rtt_ms,
        frame_stats=frame_stats,
    )
