"""Byte-for-byte golden outputs of the reduce, qhf and solve commands.

The digests were recorded before the sparse kernels, the column index and
the support-driven TSV rendering went in, and the `qhf --format json` ones
(which alone print q_passage and the delta/last_change keys) before the
QHF change log was rebuilt on the rightmost-index order. The `solve --format
json` ones and the explicit right-hand-side ones (which alone print
constants, signs and non-integral coefficients in forms) were recorded
before the field-level formatter replaced the per-term rendering. Any change
to the text a user sees shows up here as a digest mismatch. The
`--rhs symbolic:u` ones, whose rhs namespace sorts after the parameters'
`t`, were recorded before forms kept one support per namespace.
"""

import contextlib
import hashlib
import io

import pytest

from omegagj.cli import main
from util import gf_band_text


def _rhs_text(field_kind, n):
    """An explicit right-hand side of n + 1 values: signs alternate, and over
    the rationals most values are not integers."""
    if field_kind == "gf":
        values = ["%d" % ((-1) ** i * (7919 * i * i + 3)) for i in range(n + 1)]
    else:
        values = ["%d/%d" % ((-1) ** i * (7 * i + 3), i % 5 + 1) for i in range(n + 1)]
    return "rhs explicit %s\n" % " ".join(values)


def _argv(command, matrix, n, fmt="tsv", rhs="symbolic:c"):
    if command == "reduce":
        argv = ["reduce", matrix, "--stages", str(n), "--emit", "rows,passage,pivots"]
    elif command == "qhf":
        argv = ["qhf", matrix, "--stages", str(n), "--prefix", str(n // 2)]
    else:
        argv = ["solve", matrix, "--stages", str(n), "--rhs", rhs, "--horizon", str(n)]
    return argv + ["--format", fmt]


GOLDEN = {
    ("bidiag", "qhf", "json"): "47f349128e7adf20d9075f0089768b4d8ec30ce331d15b7089dd4ca3a3fe665f",
    ("bidiag", "qhf", "tsv"): "c4b0e078391b4dda1f73f9ef0fc20ffcfc642e7642a956224e0e3ac6a1136fc2",
    ("bidiag", "reduce", "json"): "1c54b35ea9b8b4e013887b24c0e890df4f29278b2b438174f8fe4b51ed374c2b",
    ("bidiag", "reduce", "tsv"): "d91746de25350097e6d410fe3ac6001d2a744d01bda5d8c6c158dc847f2e098b",
    ("bidiag", "solve", "json"): "91c1701c114f26de1c421d04ae88aad94031e1be2935c7208ad9e866927d9709",
    ("bidiag", "solve", "tsv"): "2b883328e2ddd2fcfb72a807cdb709bec6e4493fa29c9d4115c71d8d02871539",
    ("fulkerson", "qhf", "json"): "8c346b6933a6529047645d055f41fab36ba00ecc4f28855a07d55da8eda07908",
    ("fulkerson", "qhf", "tsv"): "211ff613c2055d88a442fff80573974ef15f1352ccb51fa4b113322c47e978ad",
    ("fulkerson", "reduce", "json"): "e2c22e2239b581e28c14901bd30f2706c1805a073d0e49e0db0e1e5d262577c3",
    ("fulkerson", "reduce", "tsv"): "c7246e7e77f8d98aae9fc680b66a261bd16e43caab49683f9d32bb35ca5dd652",
    ("fulkerson", "solve", "json"): "0d0b1055d5b44291cc36b96fdee568275dbfb8f4029f2e36691aae43c1771a1c",
    ("fulkerson", "solve", "tsv"): "8356a208e577160ede37e953f4aa7e69307b35f396a8ca63d96547fa30034538",
    ("gf-band", "qhf", "json"): "17c43cf3ac502b40d1c56a0552f182dfd79449e6f7d046b2ce73828de4b7047e",
    ("gf-band", "qhf", "tsv"): "6e737b5b35ed7edcf3bf598b4c0ba05dc8c1c916aef88dda7470f9de3168deac",
    ("gf-band", "reduce", "json"): "e98b0d33e7d2febfdf1f7ab486ec564848d3f6e638928641a316d9ca5b997084",
    ("gf-band", "reduce", "tsv"): "d29cad474002a67439cde8bbc5e9547291d04fc4cf08a06ace4283260c263f48",
    ("gf-band", "solve", "json"): "3e2782c545588e71a6f893ca82a4c4623042d356a6ee3e6d8363804ed239714d",
    ("gf-band", "solve", "tsv"): "ed90acbe1f2359e2092ac905970dd846d4fd339cfd462cd3d8b63ef38ba662b1",
    ("pde", "qhf", "json"): "963975e623e313237465475c853f933008b860b247668bde584839448d7f11a1",
    ("pde", "qhf", "tsv"): "7c1fc9d8e88a7a5e6ca30d888eedbe997a7ca327fbf4d95147fdbd83ffe2f5cf",
    ("pde", "reduce", "json"): "4ad59d5168e9fbe4344faf37194cf9d2798b37035e6480a2d0179c5030ff92ff",
    ("pde", "reduce", "tsv"): "826aaa624b867ba767f2d1c0ede335aa365be18a157c1086ad4c03454392bb83",
    ("pde", "solve", "json"): "2b7a2a21a3024aa457ba533fbfd0e96980bb16babf0a8ca24ba3e687d7aa8b6a",
    ("pde", "solve", "tsv"): "f09ab452fc36c2ac452d9d08e6639f801dadb8fb23a50b76cb580a72cd057818",
}


# `solve --rhs FILE` with _rhs_text: (digest, exit code); pde and gf-band
# have zero reduced rows whose right-hand sides are nonzero constants, so
# they are inconsistent and exit 1 after printing the same text.
GOLDEN_RHS = {
    ("bidiag", "tsv"): ("42f4ee62024f29dd06ee5dfee6e30e0f48f26fbe38c2d88232822a3ae2260f7f", 0),
    ("bidiag", "json"): ("e85d26f2b2d89a44b35ad64277fb78c4a8626cf57977359e4bd6a670cfff9d81", 0),
    ("pde", "tsv"): ("b053a56da29234ffe6127b39e775f7ca4f99d6095c030d72b6b344a6b4fdabad", 1),
    ("gf-band", "tsv"): ("4177cb1ba12c3dd55a27987f72dec7952d6693e5ebe158022fe3aaa16f86d020", 1),
}


# `solve --rhs symbolic:u`: the t block of each solution entry renders before
# the u block, and fulkerson's constraints lead with a u_w term.
GOLDEN_U = {
    ("bidiag", "tsv"): "301cb91776e185fa2a9bf4e4dc47abe32ad46b58139bf71ceec1ca32ed04b929",
    ("bidiag", "json"): "2d2206faa33f2fefbc33ae1dad29d35a3783083a26e15248e4b447c93e8ae67d",
    ("fulkerson", "tsv"): "ea15588b3a5af1a8a5fdb08e454870b5376493c3218c965a94ed5e1cece59019",
    ("fulkerson", "json"): "b7e7efdd2bbbcf79f2050a9452dc484fc2bb81caceeb24d88424e43eec58d52c",
}


def _matrix_arg(name, tmp_path):
    if name != "gf-band":
        return name
    path = tmp_path / "band.txt"
    path.write_text(gf_band_text())
    return str(path)


def _digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return hashlib.sha256(buf.getvalue().encode()).hexdigest(), code


@pytest.mark.parametrize("name,command,fmt", sorted(GOLDEN))
def test_command_output_digest(name, command, fmt, tmp_path):
    argv = _argv(command, _matrix_arg(name, tmp_path), 40, fmt)
    assert _digest(argv) == (GOLDEN[(name, command, fmt)], 0)


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN_RHS))
def test_solve_explicit_rhs_digest(name, fmt, tmp_path):
    rhs = tmp_path / "rhs.txt"
    rhs.write_text(_rhs_text("gf" if name == "gf-band" else "rational", 40))
    argv = _argv("solve", _matrix_arg(name, tmp_path), 40, fmt, rhs=str(rhs))
    assert _digest(argv) == GOLDEN_RHS[(name, fmt)]


@pytest.mark.parametrize("name,fmt", sorted(GOLDEN_U))
def test_solve_rhs_namespace_after_parameters_digest(name, fmt):
    argv = _argv("solve", name, 40, fmt, rhs="symbolic:u")
    assert _digest(argv) == (GOLDEN_U[(name, fmt)], 0)
