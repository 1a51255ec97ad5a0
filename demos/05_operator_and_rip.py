"""The measurement operator up close: matrix-free vs dense agreement,
adjoint identity, exact RIP growth with sparsity order, and the
sample-complexity rule at full LTE-like scale.
"""

import numpy as np

from csra.config import SystemConfig
from csra.harness import dense_reference
from csra.sensing import (build_operator, rip_constant_exact,
                          rip_sample_complexity, export_dense_csv)

cfg = SystemConfig(n=1024, m=96, window_mode="random", t_cp=8, u_max=3, k1=1,
                   k2=2, b_slots=3, alpha=0.5, snr_db=20.0, modulation="bpsk",
                   bits_per_user=16, seed=11)
op = build_operator(cfg)
dense = dense_reference(op)   # from the definition, not op's own blocks
print(f"operator: {op.shape[0]} window samples x {op.shape[1]} compound taps")

rng = np.random.default_rng(0)
h = rng.standard_normal(op.shape[1]) + 1j * rng.standard_normal(op.shape[1])
y = rng.standard_normal(op.shape[0]) + 1j * rng.standard_normal(op.shape[0])
print(f"matrix-free vs dense: max |diff| = "
      f"{np.max(np.abs(op.apply(h) - dense @ h)):.2e}")
print(f"adjoint identity: |<Ah,y> - <h,A*y>| = "
      f"{abs(np.vdot(y, op.apply(h)) - np.vdot(op.adjoint(y), h)):.2e}")

print("\nexact RIP constants (order k over all supports):")
for k in (1, 2, 3, 4):
    rep = rip_constant_exact(dense, k)
    print(f"  delta_{k} = {rep.delta_k:.4f}  (worst support {rep.support})")

export_dense_csv(dense[:6, :8], "operator_block_demo.csv")
print("\nwrote a 6x8 block of the dense operator to operator_block_demo.csv"
      " (re,im column pairs)")

m = rip_sample_complexity(n=24576, k=6, delta=0.2, mu=1.0, c_prime=1.0)
print(f"\nsample-complexity rule at n=24576, k=6, delta=0.2: m >= {m}")
print("(with c' = 1 the polylog bound dwarfs the 839-sample window the"
      " link scenario actually uses; the constant, not the scaling, is loose)")
