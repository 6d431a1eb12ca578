"""Solve the discretized game on the unit square across speed ratios.

Both domains are gamma-sampled; per turn the escaper hops at most delta in the
interior metric and the pursuer at most r*delta along the boundary.  The
escaper wins by threatening an exit sample the pursuer cannot cover within its
next two replies.  Retrograde marking computes the exact winner, and the
winner flips from escaper to pursuer exactly once as r grows.
"""

from escape_ratio.discrete import build_game, gamma_sample, play_discrete, solve, verify_net
from escape_ratio.geometry import MetricContext, PursuerModel, validate_polygon

square = validate_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
ctx = MetricContext(square, PursuerModel.MOAT)

gamma, delta = 0.1, 0.5
samples = gamma_sample(ctx, gamma)
print(f"gamma = {gamma}: {samples.boundary_count} boundary + "
      f"{samples.interior_count} interior samples")
gap = verify_net(ctx, samples, probes=500, seed=0)
print(f"net property check: max observed gap {gap:.4f} <= gamma = {gamma}")
print()

print(f"sweep at delta = {delta}:")
last = None
for r in (0.5, 1, 2, 3, 4, 6, 10, 20):
    game = build_game(ctx, r=r, delta=delta, gamma=gamma, state_cap=1e10,
                      samples=samples)
    res = solve(game)
    winner = "escaper" if res.escaper_wins else "pursuer"
    marker = "  <- flip" if last is not None and winner != last else ""
    print(f"  r = {r:5.1f}: {winner}  ({res.win_count} winning states,"
          f" {res.iterations} rounds){marker}")
    last = winner

print()
print("replaying the extracted strategies from an escaper-win start:")
game = build_game(ctx, r=2, delta=delta, gamma=gamma, state_cap=1e10, samples=samples)
res = solve(game)
transcript = play_discrete(game, res.escaper_move, res.pursuer_move,
                           max_turns=game.n_h * game.n_z + 1,
                           h0=res.witness_h0, z0=0)
pts_h = game.samples.escaper_samples
pts_z = game.samples.pursuer_samples
for side, idx in transcript.moves:
    p = pts_h[idx] if side == "escaper" else pts_z[idx]
    print(f"  {side:8s} -> ({p[0]:.3f}, {p[1]:.3f})")
threat, z_final, exit_pos = transcript.decisive
x = game.samples.exit_samples[exit_pos]
print(f"decisive: threat from ({pts_h[threat][0]:.3f}, {pts_h[threat][1]:.3f}) "
      f"toward exit ({x[0]:.3f}, {x[1]:.3f}) is uncoverable")
