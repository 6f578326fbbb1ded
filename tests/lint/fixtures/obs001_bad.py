"""Planted OBS001 violations: off-registry / malformed metric names.

Parsed by ``tests/lint/test_rules.py``, never imported.
"""


def emit_metrics(telemetry, self_holder):
    telemetry.count("stream_pair_total")  # PLANT:OBS001  (typo: missing 's')
    telemetry.set_gauge("Stream.Space", 3.0)  # PLANT:OBS001  (uppercase)
    self_holder._telemetry.observe_histogram("made.up.metric", 1.0)  # PLANT:OBS001
    # All fine below: registered name, dynamic name, non-telemetry receiver.
    telemetry.count("stream_pairs_total")
    telemetry.count(some_name())
    path.count("/")


def some_name():
    return "whatever"


path = "a/b"
