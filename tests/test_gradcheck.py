from warpada.gradcheck import run_checks

# Every row draws from one generator in this order, so a dropped, added or
# re-ordered row moves every later row's draws and coordinates.
ROWS = ["add", "sub", "mul", "conv1d_input", "conv1d_weights", "relu", "dirichlet",
        "sum", "reshape", "warp_path_chain", "loss_grad_phi",
        "loss_grad_input", "conv1d_batched", "pool_head", "semantic_distance",
        "loss_ce", "entropy", "loss_grad_phi_batched"]


def test_audit_rows_in_order():
    assert [r.name for r in run_checks(seed=0)] == ROWS
