"""Memory-capacity planning for SW26010 core groups.

Each core group owns 8 GB of DDR3. A training iteration must hold the
parameters (+gradients, +solver state), every activation blob (data +
diff, since backward consumes forward activations), and the explicit conv
plan's im2col workspace. This planner accounts those and reports the
per-CG footprint, whose fit in DRAM is the constraint behind Table III's
per-network batch choices (AlexNet 256 but VGG only 64, ResNet-50 only 32).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.frame.layers.convolution import ConvolutionLayer
from repro.frame.net import Net
from repro.hw.spec import SW_PARAMS


@dataclass(frozen=True)
class MemoryFootprint:
    """Bytes per core group for one training configuration."""

    params_bytes: int
    solver_bytes: int
    activation_bytes: int
    workspace_bytes: int

    @property
    def total_bytes(self) -> int:
        return (
            self.params_bytes
            + self.solver_bytes
            + self.activation_bytes
            + self.workspace_bytes
        )

    def fits(self, capacity_bytes: int | None = None) -> bool:
        cap = SW_PARAMS.mem_per_cg_bytes if capacity_bytes is None else capacity_bytes
        return self.total_bytes <= cap


def net_memory_footprint(net: Net) -> MemoryFootprint:
    """Training-time memory of ``net``'s per-CG share.

    Activations are sized from the blob shapes (already the full batch;
    each CG holds a quarter of every activation, plus data+diff pairs).
    Parameters are replicated per CG (the paper's 4-thread scheme keeps a
    full copy per core group); solver state adds one velocity buffer.
    The im2col workspace is the largest unrolled matrix any explicit conv
    plan materializes (one image at a time).
    """
    n_cg = SW_PARAMS.n_core_groups
    params = net.param_bytes()
    solver = params  # momentum velocities, float32-equivalent accounting
    # Gradients live in the param blobs' diff arrays:
    params_total = 2 * params

    activations = 0
    for name, blob in net.blobs.items():
        activations += 2 * blob.nbytes  # data + diff
    activations = -(-activations // n_cg)

    workspace = 0
    for layer in net.layers:
        if isinstance(layer, ConvolutionLayer):
            _, ni, h, w = layer._bottom_shape
            from repro.kernels.im2col import conv_out_dim

            k = layer.kernel_size
            if k == 1 and layer.stride == 1 and layer.pad == 0:
                continue
            ho = conv_out_dim(h, k, layer.stride, layer.pad)
            wo = conv_out_dim(w, k, layer.stride, layer.pad)
            cols = (ni // layer.groups) * k * k * ho * wo * 4
            workspace = max(workspace, cols)

    return MemoryFootprint(
        params_bytes=params_total,
        solver_bytes=solver,
        activation_bytes=activations,
        workspace_bytes=workspace,
    )
