# Two COST01 violations: simulated device times computed and dropped.


def discarded(spec, payload):
    spec.read_time(4096)
    spec.lan.transfer_time(payload, round_trips=2)
    return payload
