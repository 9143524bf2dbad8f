"""Drive one encrypted mode through a Kerr interaction and open the box.

The quadratic-in-number phase at interaction strength pi/2 turns a
coherent state into an equal superposition of |alpha> and |-alpha>.
Because the gate only sees photon numbers it commutes with the key
rotation, so the client gets the cat after decrypting, never having told
the evaluator which state went in.
"""

import math

import numpy as np

from phasekey import (
    BitString,
    CircuitDescription,
    NonlinearPhaseSpec,
    cat_state_target,
    client_decrypt,
    coherent_fock,
    overlap,
    run_protocol,
)

ALPHA = 1.5
KERR = CircuitDescription(gates=(NonlinearPhaseSpec(terms={(2,): 1.0}, t=math.pi / 2),))

tr = run_protocol(BitString((0,)), ALPHA, d=100, circuit=KERR, seed=11)

print(f"plaintext bit 0 encoded at alpha = {ALPHA}, key k = {tr.key.k} of d = {tr.d}")
print("evaluated circuit: one number-squared phase at t = pi/2")
print(f"state correctness vs plaintext evaluation: {tr.correctness['metric']} "
      f"{tr.correctness['value']:.12f} (pass = {tr.correct})")
print()

plain = client_decrypt(tr.returned, tr.key)
target = cat_state_target(ALPHA, plain.cutoff)
fid = abs(overlap(target, plain)) ** 2
print(f"fidelity of the decrypted state with the balanced cat: {fid:.12f}")
print()

plus = abs(overlap(coherent_fock([ALPHA], plain.cutoff), plain)) ** 2
minus = abs(overlap(coherent_fock([-ALPHA], plain.cutoff), plain)) ** 2
print("weight on the two codeword amplitudes after the gate:")
print(f"  |<+alpha|out>|^2 = {plus:.6f}")
print(f"  |<-alpha|out>|^2 = {minus:.6f}")
print("the single input bit has been smeared into an equal superposition,")
print("so a bit readout of this state is a coin toss by design.")
print()

probs = np.abs(plain.amps) ** 2
pois = np.exp(-ALPHA ** 2) * ALPHA ** (2 * np.arange(plain.cutoff + 1)) \
    / np.array([math.factorial(n) for n in range(plain.cutoff + 1)])
print("photon-number statistics are untouched (the gate is diagonal in n):")
print("   n    p(n)     Poisson")
for n in range(8):
    print(f"  {n:2d}   {probs[n]:7.4f}  {pois[n]:7.4f}")
print(f"  max |p(n) - Poisson(n)| = {float(np.abs(probs - pois).max()):.2e}")
