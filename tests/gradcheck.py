"""Central finite differences against the tape's gradients, shared by the
op tests and the acceptance criterion that certifies full model losses."""
from kgmix.autodiff import Tape


def finite_difference_check(build, params, eps: float = 1e-6) -> float:
    """Certify tape gradients against central differences.

    build(tape) must deterministically record a fresh forward pass on the
    new Tape it is given and return its 1x1 loss node.  Every entry of
    every parameter in `params` is perturbed by +-eps.  Returns the maximum
    relative error, where the denominator is floored at 1e-3 so that
    entries with near-zero gradient are compared absolutely at that scale.
    """
    for p in params:
        p.zero_grad()
    tape = Tape()
    tape.backward(build(tape))
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, grad in zip(params, analytic):
        flat = p.value.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(build(Tape()).value[0, 0])
            flat[i] = orig - eps
            f_minus = float(build(Tape()).value[0, 0])
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            denom = max(abs(fd), abs(gflat[i]), 1e-3)
            worst = max(worst, abs(fd - gflat[i]) / denom)
    return worst
