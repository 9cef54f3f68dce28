"""Registry-driven layer gradient conformance.

One test per registered :class:`~repro.testing.gradcheck.LayerCase`
(parametrized by the conformance plugin): every input gradient and every
parameter gradient of every registered layer is checked against central
differences. Coverage that previously required a hand-written test per
layer (and silently missed LRN, Scale, Eltwise variants, Concat, LSTM)
now follows from registration.

Registration also buys three invariants: a zero top diff gives exactly
zero bottom and parameter gradients, an all-zero input gives an all-zero
output, and an all-ones input gives a nonzero one. A layer whose function
breaks an invariant by definition is exempt from it, with the reason.
"""

import numpy as np
import pytest

from repro.testing.gradcheck import LAYERS, check_layer, registered_layers, run_layer

#: Layers whose all-zero input maps to a nonzero output, and why.
ZERO_INPUT_EXEMPT = {
    "power": "(shift + scale * 0) ** power is 1.5 ** 2 with shift 1.5",
    "sigmoid": "sigmoid(0) is 1/2",
    "softmax": "normalises any constant input to the uniform 1/n",
}
#: Layers whose all-ones input maps to an all-zero output, and why.
ONES_INPUT_EXEMPT = {
    "batch_norm": "maps constant input to beta, which starts at zero",
}

#: Layers the issue audit found without gradient coverage in the seed
#: test-suite; their presence in the registry is pinned so a refactor
#: cannot silently drop them again.
AUDIT_REQUIRED = {
    "lrn",
    "scale",
    "eltwise_sum",
    "eltwise_prod",
    "eltwise_max",
    "concat",
    "lstm",
}


def test_layer_gradients(layer_name):
    check_layer(layer_name)


def test_audited_layers_are_registered():
    missing = AUDIT_REQUIRED - set(registered_layers())
    assert not missing, f"audited layers missing from gradcheck registry: {missing}"


def test_registry_layers_have_distinct_factories():
    """Each case builds a working deterministic layer (fresh instances)."""
    for name in registered_layers():
        case = LAYERS[name]
        a, b = case.factory(), case.factory()
        assert a is not b


def test_zero_top_diff_gives_zero_gradients(layer_name):
    case = LAYERS[layer_name]
    inputs = case.make_inputs(np.random.default_rng([0xC0FFEE, 1]))
    layer = case.factory()
    blobs = run_layer(layer, inputs)
    bottoms, tops = blobs[: len(inputs)], blobs[len(inputs) :]
    for top in tops:
        top.diff = np.zeros(top.shape)
    layer.backward(tops, bottoms)
    for blob in [*bottoms, *layer.params]:
        assert not np.any(blob.diff), blob.name  # exactly zero


@pytest.mark.parametrize("fill", [0.0, 1.0], ids=["zeros", "ones"])
def test_constant_input_gives_zero_or_nonzero_output(layer_name, fill):
    """Zeros in, zeros out; ones in, something nonzero out. An exempt
    layer must really break the invariant, so no exemption goes stale."""
    exempt = ZERO_INPUT_EXEMPT if fill == 0.0 else ONES_INPUT_EXEMPT
    case = LAYERS[layer_name]
    inputs = case.make_inputs(np.random.default_rng(0))
    blobs = run_layer(case.factory(), [np.full_like(a, fill) for a in inputs])
    out = np.concatenate([top.data.ravel() for top in blobs[len(inputs) :]])
    assert np.all(np.isfinite(out))
    nonzero_expected = bool(fill) != (layer_name in exempt)
    assert bool(np.any(out)) == nonzero_expected, exempt.get(layer_name, out)


def test_exemptions_name_registered_layers():
    assert set(ZERO_INPUT_EXEMPT) | set(ONES_INPUT_EXEMPT) <= set(registered_layers())
