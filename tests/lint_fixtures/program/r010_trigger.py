"""R010 trigger: an executor's traffic drifts from the declaration.

``DriftTrainer``'s RoundSpec declares only a ``MODEL_PULL`` CommPhase,
but its compute executor sends ``GRADIENT_PUSH`` on the wire behind the
spec's back — exactly the code/declaration drift the static extractor
exists to catch before a runtime repro does.
"""


class MessageKind:
    MODEL_PULL = "model_pull"
    GRADIENT_PUSH = "gradient_push"


class Message:
    def __init__(self, kind, src, dst, size_bytes):
        self.kind = kind
        self.size_bytes = size_bytes


class ComputePhase:
    def __init__(self, name, run):
        self.name = name
        self.run = run


class CommPhase:
    def __init__(self, name, kind, pattern, sizes):
        self.name = name
        self.kind = kind


class RoundSpec:
    def __init__(self, system, phases):
        self.phases = phases


def drift_model_bytes():
    return 0


class DriftTrainer:
    def round_spec(self):
        return RoundSpec(
            system="Drift",
            phases=(
                ComputePhase("compute", run="_phase_compute"),
                CommPhase(
                    "pull",
                    kind=MessageKind.MODEL_PULL,
                    pattern="broadcast",
                    sizes="_pull_size",
                ),
            ),
        )

    def _phase_compute(self, net):
        net.send(Message(MessageKind.GRADIENT_PUSH, 0, -1, drift_model_bytes()))
        return {}

    def _pull_size(self, ctx):
        return drift_model_bytes()
