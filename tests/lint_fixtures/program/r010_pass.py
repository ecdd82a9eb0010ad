"""R010 pass: an executor's emission (through a self-call) is declared
by a CommPhase of the trainer's RoundSpec."""


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


def steady_model_bytes():
    return 0


class SteadyTrainer:
    def round_spec(self):
        return RoundSpec(
            system="Steady",
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
        self._emit(net)
        return {}

    def _pull_size(self, ctx):
        return steady_model_bytes()

    def _emit(self, net):
        net.send(Message(MessageKind.MODEL_PULL, -1, 0, steady_model_bytes()))
