"""Walk through one protocol session message by message.

Runs a single computation-round session with a fixed seed, prints every
transcript entry with a one-line gloss, and checks the decoded output state
against the client's bookkeeping at the end.
"""

import json

import cvqcsim.adversary as adv
from cvqcsim.protocol import run_pre_rspv

KAPPA = 8
L = 2
SEED = b"walkthrough"

GLOSS = {
    "round.plan": "client commits to a round type (server never learns it early)",
    "setup.block": "client samples a claw-free keypair for one block",
    "setup.y": "server replies with the image y it prepared a superposition over",
    "phase.table": "encrypted phase lookup: helper-branch || own-branch -> theta",
    "reveal.phase": "client reveals theta1-theta0 (minus any hidden bias)",
    "hadamard.pad": "client sends a fresh oracle pad for the Hadamard test",
    "reply.hadamard": "server's measured d; its parity against w0^w1 is the check",
    "measure.std": "client asks for standard-basis keys of these blocks",
    "reply.std": "server's reported branch keys",
    "combine.table": "encrypted pairing table folding one gadget into the base",
    "reply.combine": "server's measured pairing tag (equal or crossed branches)",
    "comp.reveal": "client opens the output key pairs so the server can decode",
    "comp.state": "server's decoded output state (simulation-only visibility)",
    "session.outcome": "client's verdict for this session",
    "abort": "server hit an undecryptable table and gave up",
}


def main():
    out = run_pre_rspv(
        adv.parse_strategy("honest"), SEED, kappa=KAPPA, L=L, force_plan="comp", collect_transcript=True
    )
    print(f"session: kappa={KAPPA} L={L} seed={SEED!r} (forced into a computation round)\n")
    for entry in out.transcript.entries:
        payload = json.dumps(entry["payload"], separators=(",", ":"))
        if len(payload) > 64:
            payload = payload[:61] + "..."
        print(f"[{entry['seq']:2d}] {entry['sender']:6s} {entry['step']:15s} {payload}")
        print(f"     ^ {GLOSS[entry['step']]}")
    print()
    print(f"verdict: flag={out.flag} round_type={out.round_type}")
    o = out.outputs
    print(f"client target phases: {o.client_thetas}")
    print(f"decoded state phases: {o.decoded.thetas}  (fidelity {o.fidelity():.1f})")
    print("\nthe decoded state is |+_theta1> x |+_theta2> with theta in units of pi/4;")
    print("re-running this script reproduces the transcript byte for byte.")


if __name__ == "__main__":
    main()
