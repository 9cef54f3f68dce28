"""SW26010 kernel plans (paper Sec. III-IV).

Each plan prices one kernel invocation with a cost model derived from the
:mod:`repro.hw` architecture model. The GEMM and convolution plans only
price: convolution layers execute through :mod:`repro.frame.conv_ops`
(pooling and the layout transform still run through their plans). The
blocked kernels (GEMM, im2col /
col2im, implicit convolution) also describe their schedule as a data-free
tile walk that :func:`~repro.kernels.plan.replay` prices and the tests pin
to the cost formula. The plan family mirrors swCaffe's kernel zoo:

* :class:`~repro.kernels.gemm.SWGemmPlan` — blocked GEMM using the 8-step
  row/column register-communication schedule (Sec. IV-A, Fig. 3);
* :class:`~repro.kernels.conv_explicit.ExplicitConvPlan` — im2col/col2im +
  GEMM, the original Caffe lowering with DMA-optimized transforms (Fig. 4);
* :class:`~repro.kernels.conv_implicit.ImplicitConvPlan` — the swDNN-style
  direct convolution blocked on width/channels, which degrades (and is
  refused) for small channel counts;
* :class:`~repro.kernels.pooling.PoolingPlan` — DMA-strategy pooling;
* :class:`~repro.kernels.transform.TensorTransformPlan` — the layout
  transposition layer between explicit (B,N,R,C) and implicit (R,C,N,B)
  data layouts (Sec. IV-C);
* :func:`~repro.kernels.autotune.select_conv_plan` — the "run the first
  two iterations, keep the winner" strategy (Sec. VI-A).
"""
