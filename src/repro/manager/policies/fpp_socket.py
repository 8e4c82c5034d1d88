"""Socket-level FPP: the paper's device-agnostic extension.

Section III-B2: "While we utilize this policy on GPUs, it is
device-agnostic from a logistical perspective, and can be easily
extended to be utilized for socket-level or memory-level power
capping." This policy runs Algorithm 1 unchanged — the same
:class:`~repro.manager.policies.fpp.FPPPolicy` code — on the node
manager's ``"socket"`` cap domain: the period detector consumes socket
power and the cap dial is the socket limit (RAPL on Intel, E-SMI on
AMD, the service processor on IBM). Parameters default to
socket-appropriate magnitudes — a Power9 socket spans ~50-250 W rather
than a V100's 100-300 W.
"""

from __future__ import annotations

from repro.manager.policies.fpp import FPPParams, FPPPolicy

#: Socket-scaled Algorithm 1 constants: shallower probe and steps for
#: the narrower socket power range.
SOCKET_FPP_PARAMS = FPPParams(
    p_reduce_w=25.0,
    powercap_levels_w=(5.0, 10.0, 15.0),
    max_gpu_cap_w=250.0,  # acts as the per-socket hard max here
)


class FPPSocketPolicy(FPPPolicy):
    """Algorithm 1 applied to CPU sockets instead of GPUs."""

    name = "fpp-socket"
    domain = "socket"
    default_params = SOCKET_FPP_PARAMS
