//! Binary serialization of trained parameters.
//!
//! On-device deployment (the paper's whole premise) ships trained weights
//! to the edge; this module provides a dependency-free, versioned binary
//! format for any [`Mlp`]'s parameters. Only values needed to reproduce
//! inference travel — optimizer state and training caches stay behind.
//!
//! Format (version 2): magic `NOBL`, format version u32, tensor count
//! u32, then per tensor: rows u32, cols u32, row-major f64 little-endian
//! payload; then a running-statistics section: stat-vector count u32,
//! then per vector: len u32, f64 payload. The stat vectors are each
//! batch-norm stage's running mean and variance in layer order — without
//! them an inference pass through a restored network would not be
//! bit-identical to the saved one. Version 1 (no statistics section) is
//! no longer readable; loading it is a typed error, never a panic.
//!
//! Version 3 is the **compact encoding** ([`ParamEncoding::F32`]): the
//! identical layout with every scalar stored as f32 little-endian
//! (4 bytes), halving edge-store footprints. Narrowing is lossy, so a
//! v3 round trip reproduces inference only to f32 accuracy — the same
//! accuracy-gated contract as the lowered serving tier, checked by the
//! round-trip tests here and the compact-snapshot gate in `noble`'s
//! `precision_parity` suite. [`load_parameters`] reads both versions; the
//! default writer [`save_parameters`] still emits byte-identical v2.

use crate::{Mlp, NnError};

const MAGIC: &[u8; 4] = b"NOBL";
const VERSION_F64: u32 = 2;
const VERSION_F32: u32 = 3;

/// Scalar encoding of a parameter blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ParamEncoding {
    /// Exact f64 scalars (format version 2) — the default; round trips
    /// are bit-identical.
    #[default]
    F64,
    /// Compact f32 scalars (format version 3) — ~2x smaller, round
    /// trips reproduce inference to f32 accuracy.
    F32,
}

impl ParamEncoding {
    /// Bytes per stored scalar.
    fn unit(self) -> usize {
        match self {
            ParamEncoding::F64 => 8,
            ParamEncoding::F32 => 4,
        }
    }

    fn version(self) -> u32 {
        match self {
            ParamEncoding::F64 => VERSION_F64,
            ParamEncoding::F32 => VERSION_F32,
        }
    }
}

/// Serializes every trainable parameter of `mlp`, plus its batch-norm
/// running statistics, into a byte buffer (exact f64 encoding).
pub fn save_parameters(mlp: &Mlp) -> Vec<u8> {
    save_parameters_with(mlp, ParamEncoding::F64)
}

/// [`save_parameters`] with an explicit scalar encoding.
pub fn save_parameters_with(mlp: &Mlp, encoding: ParamEncoding) -> Vec<u8> {
    let params = mlp.params();
    let stats = mlp.running_stats();
    let unit = encoding.unit();
    let tensor_bytes: usize = params.iter().map(|p| 8 + p.len() * unit).sum();
    let stat_bytes: usize = stats
        .iter()
        .map(|(m, v)| 8 + (m.len() + v.len()) * unit)
        .sum();
    let mut out = Vec::with_capacity(16 + tensor_bytes + 4 + stat_bytes);
    let push_scalar = |out: &mut Vec<u8>, v: f64| match encoding {
        ParamEncoding::F64 => out.extend_from_slice(&v.to_le_bytes()),
        ParamEncoding::F32 => out.extend_from_slice(&crate::lowered::narrow(v).to_le_bytes()),
    };
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&encoding.version().to_le_bytes());
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        let (r, c) = p.value.shape();
        out.extend_from_slice(&(r as u32).to_le_bytes());
        out.extend_from_slice(&(c as u32).to_le_bytes());
        for &v in p.value.as_slice() {
            push_scalar(&mut out, v);
        }
    }
    out.extend_from_slice(&(2 * stats.len() as u32).to_le_bytes());
    for (mean, var) in stats {
        for vector in [mean, var] {
            out.extend_from_slice(&(vector.len() as u32).to_le_bytes());
            for &v in vector {
                push_scalar(&mut out, v);
            }
        }
    }
    out
}

/// The scalar encoding of a parameter blob, sniffed from its header.
///
/// # Errors
///
/// [`NnError::InvalidConfig`] when the header is truncated, has the
/// wrong magic, or names an unknown version.
pub fn blob_encoding(bytes: &[u8]) -> Result<ParamEncoding, NnError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    if cursor.take(4)? != MAGIC {
        return Err(NnError::InvalidConfig(
            "bad magic: not a NObLe parameter blob".into(),
        ));
    }
    match cursor.u32()? {
        VERSION_F64 => Ok(ParamEncoding::F64),
        VERSION_F32 => Ok(ParamEncoding::F32),
        v => Err(NnError::InvalidConfig(format!(
            "unsupported parameter format version {v} (this build reads {VERSION_F64} and {VERSION_F32})"
        ))),
    }
}

/// Restores parameters and running statistics previously produced by
/// [`save_parameters`] / [`save_parameters_with`] into a *structurally
/// identical* network (same builder calls, or [`Mlp::from_specs`] on
/// the saved architecture).
///
/// Both encodings load: f64 blobs restore exactly; f32 blobs widen each
/// scalar to f64 (the widening itself is exact — the loss happened at
/// save time).
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] when the buffer is malformed or
/// truncated, the version is unsupported, or tensor shapes do not match
/// the target network.
pub fn load_parameters(mlp: &mut Mlp, bytes: &[u8]) -> Result<(), NnError> {
    let encoding = blob_encoding(bytes)?;
    let mut cursor = Cursor { bytes, pos: 8 };
    let count = cursor.u32()? as usize;
    let checked = mlp.input_weights_tensor();
    let mut input_weights_finite = false;
    {
        let mut params = mlp.params_mut();
        if count != params.len() {
            return Err(NnError::InvalidConfig(format!(
                "blob has {count} tensors, network has {}",
                params.len()
            )));
        }
        for (i, p) in params.iter_mut().enumerate() {
            let rows = cursor.u32()? as usize;
            let cols = cursor.u32()? as usize;
            if (rows, cols) != p.value.shape() {
                return Err(NnError::InvalidConfig(format!(
                    "tensor shape {rows}x{cols} does not match network tensor {}x{}",
                    p.value.shape().0,
                    p.value.shape().1
                )));
            }
            if Some(i) == checked {
                // Learned in the decode loop itself: no second pass.
                let mut finite = true;
                cursor.decode(encoding, p.value.as_mut_slice(), |v| {
                    finite &= v.is_finite();
                })?;
                input_weights_finite = finite;
            } else {
                cursor.scalars_into(encoding, p.value.as_mut_slice())?;
            }
        }
    }
    // Every vector needs at least a 4-byte length prefix; bounding the
    // counts against the remaining bytes keeps a corrupt length field
    // from demanding a huge allocation before any payload is read.
    let stat_count = cursor.checked_len(4)?;
    if !stat_count.is_multiple_of(2) {
        return Err(NnError::InvalidConfig(format!(
            "running-statistics section has odd vector count {stat_count}"
        )));
    }
    let mut stats = Vec::with_capacity(stat_count / 2);
    for _ in 0..stat_count / 2 {
        let mean = cursor.vector(encoding)?;
        let var = cursor.vector(encoding)?;
        stats.push((mean, var));
    }
    mlp.set_running_stats(&stats)?;
    if cursor.pos != bytes.len() {
        return Err(NnError::InvalidConfig(format!(
            "{} trailing bytes after parameters",
            bytes.len() - cursor.pos
        )));
    }
    mlp.set_input_weights_finite(input_weights_finite);
    // A separate pass over the last layer, never inside the decode loop.
    mlp.build_screen();
    Ok(())
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], NnError> {
        if n > self.bytes.len() - self.pos {
            return Err(NnError::InvalidConfig("truncated parameter blob".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, NnError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a count that prefixes `unit`-byte elements, rejecting values
    /// the remaining buffer cannot possibly hold (allocation guard).
    fn checked_len(&mut self, unit: usize) -> Result<usize, NnError> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.checked_mul(unit).is_none_or(|bytes| bytes > remaining) {
            return Err(NnError::InvalidConfig(format!(
                "corrupt length {n}: exceeds {remaining} remaining blob bytes"
            )));
        }
        Ok(n)
    }

    /// Fills `out` from the next `out.len()` scalars in the blob's
    /// encoding, widened to f64: one bounds check for the whole run,
    /// then a straight decode.
    fn scalars_into(&mut self, encoding: ParamEncoding, out: &mut [f64]) -> Result<(), NnError> {
        self.decode(encoding, out, |_| {})
    }

    /// [`Cursor::scalars_into`] that shows each decoded scalar to `seen`
    /// inside the decode loop. Anything `seen` does costs the loop its
    /// straight-copy speed, so only the tensor that needs it pays.
    fn decode(
        &mut self,
        encoding: ParamEncoding,
        out: &mut [f64],
        mut seen: impl FnMut(f64),
    ) -> Result<(), NnError> {
        let bytes = self.take(out.len() * encoding.unit())?;
        match encoding {
            ParamEncoding::F64 => {
                for (v, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
                    *v = f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
                    seen(*v);
                }
            }
            ParamEncoding::F32 => {
                for (v, b) in out.iter_mut().zip(bytes.chunks_exact(4)) {
                    *v = f64::from(f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
                    seen(*v);
                }
            }
        }
        Ok(())
    }

    /// Reads one length-prefixed scalar vector.
    fn vector(&mut self, encoding: ParamEncoding) -> Result<Vec<f64>, NnError> {
        let mut v = vec![0.0; self.checked_len(encoding.unit())?];
        self.scalars_into(encoding, &mut v)?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Activation;
    use noble_linalg::Matrix;

    fn network(seed: u64) -> Mlp {
        Mlp::builder(3, seed)
            .dense(5)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(2)
            .build()
    }

    #[test]
    fn round_trip_preserves_outputs() {
        let mut a = network(1);
        // Drive the running stats away from init so the round-trip result
        // depends on them being carried.
        let warm = Matrix::from_fn(16, 3, |i, j| ((i * 3 + j) % 7) as f64 / 3.0 - 1.0);
        a.forward(&warm, true).unwrap();
        let blob = save_parameters(&a);
        let mut b = network(99); // different init
        load_parameters(&mut b, &blob).unwrap();
        let x = Matrix::from_rows(&[vec![0.4, -1.0, 2.0]]).unwrap();
        let ya = a.predict(&x).unwrap();
        let yb = b.predict(&x).unwrap();
        assert_eq!(ya.as_slice(), yb.as_slice());
    }

    #[test]
    fn round_trip_through_specs_preserves_outputs() {
        let mut a = network(7);
        let warm = Matrix::from_fn(8, 3, |i, j| (i as f64 - j as f64) / 4.0);
        a.forward(&warm, true).unwrap();
        let blob = save_parameters(&a);
        let mut b = Mlp::from_specs(a.in_dim(), &a.layer_specs()).unwrap();
        load_parameters(&mut b, &blob).unwrap();
        let x = Matrix::from_rows(&[vec![1.5, -0.25, 0.75]]).unwrap();
        assert_eq!(
            a.predict(&x).unwrap().as_slice(),
            b.predict(&x).unwrap().as_slice()
        );
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let a = network(1);
        let mut blob = save_parameters(&a);
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(load_parameters(&mut network(2), &bad).is_err());
        blob.truncate(blob.len() - 3);
        assert!(load_parameters(&mut network(2), &blob).is_err());
    }

    #[test]
    fn rejects_structural_mismatch() {
        let a = network(1);
        let blob = save_parameters(&a);
        let mut wider = Mlp::builder(3, 0)
            .dense(6)
            .batch_norm()
            .activation(Activation::Tanh)
            .dense(2)
            .build();
        assert!(load_parameters(&mut wider, &blob).is_err());
        let mut fewer = Mlp::builder(3, 0).dense(2).build();
        assert!(load_parameters(&mut fewer, &blob).is_err());
    }

    #[test]
    fn rejects_trailing_bytes_and_bad_version() {
        let a = network(1);
        let mut blob = save_parameters(&a);
        blob.push(0);
        assert!(load_parameters(&mut network(2), &blob).is_err());
        let mut blob = save_parameters(&a);
        blob[4] = 9; // version
        let err = load_parameters(&mut network(2), &blob).unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
        // Version 1 blobs (no statistics section) are also a typed error.
        blob[4] = 1;
        assert!(load_parameters(&mut network(2), &blob).is_err());
    }

    #[test]
    fn blob_size_is_deterministic() {
        let a = network(1);
        let b1 = save_parameters(&a);
        let b2 = save_parameters(&a);
        assert_eq!(b1, b2);
    }

    #[test]
    fn compact_f32_blob_halves_scalar_bytes_and_round_trips_closely() {
        let mut a = network(1);
        let warm = Matrix::from_fn(16, 3, |i, j| ((i * 3 + j) % 7) as f64 / 3.0 - 1.0);
        a.forward(&warm, true).unwrap();
        let exact = save_parameters_with(&a, ParamEncoding::F64);
        let compact = save_parameters_with(&a, ParamEncoding::F32);
        assert_eq!(blob_encoding(&exact).unwrap(), ParamEncoding::F64);
        assert_eq!(blob_encoding(&compact).unwrap(), ParamEncoding::F32);
        // Scalar payloads halve; only the fixed headers stay 8/4-byte.
        let scalars = a.parameter_count()
            + a.running_stats()
                .iter()
                .map(|(m, v)| m.len() + v.len())
                .sum::<usize>();
        assert_eq!(exact.len() - compact.len(), scalars * 4);

        let mut b = network(99);
        load_parameters(&mut b, &compact).unwrap();
        let x = Matrix::from_rows(&[vec![0.4, -1.0, 2.0]]).unwrap();
        let ya = a.predict(&x).unwrap();
        let yb = b.predict(&x).unwrap();
        let drift = ya.max_abs_diff(&yb).unwrap();
        assert!(drift > 0.0, "narrowing should be lossy on trained weights");
        assert!(drift < 1e-4, "f32 round trip drifted {drift}");
    }

    #[test]
    fn default_writer_is_still_byte_identical_v2() {
        // The compact encoding must not perturb the default format:
        // existing snapshots in stores hydrate against these exact bytes.
        let a = network(4);
        let blob = save_parameters(&a);
        assert_eq!(&blob[..4], b"NOBL");
        assert_eq!(u32::from_le_bytes([blob[4], blob[5], blob[6], blob[7]]), 2);
        assert_eq!(blob, save_parameters_with(&a, ParamEncoding::F64));
    }

    #[test]
    fn cut_mid_tensor_is_typed_for_both_encodings() {
        let a = network(1);
        for encoding in [ParamEncoding::F64, ParamEncoding::F32] {
            let blob = save_parameters_with(&a, encoding);
            // Header (12 bytes) + first tensor's shape (8), then its
            // 3x5 scalars: cut through the middle of that run.
            let cut = 12 + 8 + 7 * encoding.unit() + 1;
            let err = load_parameters(&mut network(2), &blob[..cut]).unwrap_err();
            assert!(err.to_string().contains("truncated"), "{encoding:?}: {err}");
            // Every other prefix is a typed error too, never a panic.
            for n in 0..blob.len() {
                assert!(load_parameters(&mut network(2), &blob[..n]).is_err());
            }
        }
    }

    #[test]
    fn blob_encoding_rejects_garbage() {
        assert!(blob_encoding(b"NOB").is_err());
        assert!(blob_encoding(b"XOBL\x02\x00\x00\x00").is_err());
        assert!(blob_encoding(b"NOBL\x07\x00\x00\x00").is_err());
    }
}
