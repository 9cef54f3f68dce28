#!/usr/bin/env python
"""Load and train a genuine Caffe ``.prototxt`` model definition.

The paper emphasizes that swCaffe "maintain[s] the same interfaces as
Caffe": existing model files deploy unchanged, only the backend differs.
This example builds a LeNet variant from embedded Caffe prototxt text
(net + solver definitions), trains it on synthetic data, and prints the
simulated SW26010 profile of the resulting net.

Run:  python examples/caffe_prototxt.py
"""

from repro.frame.prototxt import net_from_prototxt, solver_from_prototxt
from repro.io.dataset import SyntheticImageNet
from repro.metrics.roofline import net_roofline, render_profile
from repro.utils.rng import seeded_rng

NET_PROTOTXT = """
name: "LeNet-sw"
layer {
  name: "mnist"  type: "Data"
  top: "data"  top: "label"
  data_param { batch_size: 32 }
}
layer {
  name: "conv1"  type: "Convolution"
  bottom: "data"  top: "conv1"
  convolution_param {
    num_output: 20  kernel_size: 5
    weight_filler { type: "msra" }
  }
}
layer {
  name: "pool1"  type: "Pooling"
  bottom: "conv1"  top: "pool1"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 }
}
layer {
  name: "conv2"  type: "Convolution"
  bottom: "pool1"  top: "conv2"
  convolution_param { num_output: 50  kernel_size: 5 }
}
layer {
  name: "pool2"  type: "Pooling"
  bottom: "conv2"  top: "pool2"
  pooling_param { pool: MAX kernel_size: 2 stride: 2 }
}
layer {
  name: "ip1"  type: "InnerProduct"
  bottom: "pool2"  top: "ip1"
  inner_product_param { num_output: 500 }
}
layer {
  name: "relu1"  type: "ReLU"
  bottom: "ip1"  top: "ip1_relu"
}
layer {
  name: "ip2"  type: "InnerProduct"
  bottom: "ip1_relu"  top: "ip2"
  inner_product_param { num_output: 10 }
}
layer {
  name: "loss"  type: "SoftmaxWithLoss"
  bottom: "ip2"  bottom: "label"
  top: "loss"
}
layer {
  name: "accuracy"  type: "Accuracy"
  bottom: "ip2"  bottom: "label"
  top: "accuracy"
}
"""

SOLVER_PROTOTXT = """
type: "Nesterov"
base_lr: 0.01
momentum: 0.9
weight_decay: 0.0005
lr_policy: "step"
gamma: 0.5
stepsize: 40
"""


def main() -> None:
    source = SyntheticImageNet(
        num_classes=10, sample_shape=(1, 28, 28), noise=0.3, seed=17
    )
    net = net_from_prototxt(NET_PROTOTXT, source=source, rng=seeded_rng(8))
    solver = solver_from_prototxt(SOLVER_PROTOTXT, net)
    print(f"built {net} from Caffe prototxt; solver: {type(solver).__name__} "
          f"(lr={solver.base_lr}, policy={solver.lr_policy})")

    stats = solver.step(60)
    print(
        f"loss {stats.losses[0]:.3f} -> {stats.losses[-1]:.3f}; "
        f"accuracy {float(net.blobs['accuracy'].data[0]):.2f}"
    )
    print()
    print(render_profile(net, net_roofline(net)))


if __name__ == "__main__":
    main()
