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
//! bit-identical to the saved one. Every other version (1, which had no
//! statistics section, and the retired f32 encoding 3) is a typed error
//! on load, never a panic.

use crate::{Mlp, NnError};

const MAGIC: &[u8; 4] = b"NOBL";
const VERSION: u32 = 2;

/// Serializes every trainable parameter of `mlp`, plus its batch-norm
/// running statistics, into a byte buffer.
pub fn save_parameters(mlp: &Mlp) -> Vec<u8> {
    let params = mlp.params();
    let stats = mlp.running_stats();
    let tensor_bytes: usize = params.iter().map(|p| 8 + p.len() * 8).sum();
    let stat_bytes: usize = stats.iter().map(|(m, v)| 8 + (m.len() + v.len()) * 8).sum();
    let mut out = Vec::with_capacity(16 + tensor_bytes + 4 + stat_bytes);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        let (r, c) = p.value.shape();
        out.extend_from_slice(&(r as u32).to_le_bytes());
        out.extend_from_slice(&(c as u32).to_le_bytes());
        for &v in p.value.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out.extend_from_slice(&(2 * stats.len() as u32).to_le_bytes());
    for (mean, var) in stats {
        for vector in [mean, var] {
            out.extend_from_slice(&(vector.len() as u32).to_le_bytes());
            for &v in vector {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
    }
    out
}

/// Restores parameters and running statistics previously produced by
/// [`save_parameters`] into a *structurally identical* network (same
/// builder calls, or [`Mlp::from_specs`] on the saved architecture).
///
/// # Errors
///
/// Returns [`NnError::InvalidConfig`] when the buffer is malformed or
/// truncated, the version is unsupported, or tensor shapes do not match
/// the target network.
pub fn load_parameters(mlp: &mut Mlp, bytes: &[u8]) -> Result<(), NnError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    if cursor.take(4)? != MAGIC {
        return Err(NnError::InvalidConfig(
            "bad magic: not a NObLe parameter blob".into(),
        ));
    }
    let version = cursor.u32()?;
    if version != VERSION {
        return Err(NnError::InvalidConfig(format!(
            "unsupported parameter format version {version} (this build reads {VERSION})"
        )));
    }
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
                cursor.decode(p.value.as_mut_slice(), |v| {
                    finite &= v.is_finite();
                })?;
                input_weights_finite = finite;
            } else {
                cursor.scalars_into(p.value.as_mut_slice())?;
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
        let mean = cursor.vector()?;
        let var = cursor.vector()?;
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

    /// Fills `out` from the next `out.len()` f64 scalars: one bounds
    /// check for the whole run, then a straight decode.
    fn scalars_into(&mut self, out: &mut [f64]) -> Result<(), NnError> {
        self.decode(out, |_| {})
    }

    /// [`Cursor::scalars_into`] that shows each decoded scalar to `seen`
    /// inside the decode loop. Anything `seen` does costs the loop its
    /// straight-copy speed, so only the tensor that needs it pays.
    fn decode(&mut self, out: &mut [f64], mut seen: impl FnMut(f64)) -> Result<(), NnError> {
        let bytes = self.take(out.len() * 8)?;
        for (v, b) in out.iter_mut().zip(bytes.chunks_exact(8)) {
            *v = f64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
            seen(*v);
        }
        Ok(())
    }

    /// Reads one length-prefixed scalar vector.
    fn vector(&mut self) -> Result<Vec<f64>, NnError> {
        let mut v = vec![0.0; self.checked_len(8)?];
        self.scalars_into(&mut v)?;
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
    fn writer_emits_version_2() {
        // Existing snapshots in stores hydrate against these exact bytes.
        let a = network(4);
        let blob = save_parameters(&a);
        assert_eq!(&blob[..4], b"NOBL");
        assert_eq!(u32::from_le_bytes([blob[4], blob[5], blob[6], blob[7]]), 2);
    }

    #[test]
    fn cut_mid_tensor_is_typed() {
        let a = network(1);
        let blob = save_parameters(&a);
        // Header (12 bytes) + first tensor's shape (8), then its 3x5
        // scalars: cut through the middle of that run.
        let cut = 12 + 8 + 7 * 8 + 1;
        let err = load_parameters(&mut network(2), &blob[..cut]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
        // Every other prefix is a typed error too, never a panic.
        for n in 0..blob.len() {
            assert!(load_parameters(&mut network(2), &blob[..n]).is_err());
        }
    }

    #[test]
    fn retired_f32_version_is_a_typed_error() {
        // Version 3 stored every scalar as f32; this build no longer
        // reads it, whatever follows the header.
        let mut blob = save_parameters(&network(1));
        blob[4] = 3;
        let err = load_parameters(&mut network(2), &blob).unwrap_err();
        assert!(err.to_string().contains("version 3"), "{err}");
        for garbage in [
            &b"NOB"[..],
            b"XOBL\x02\x00\x00\x00",
            b"NOBL\x03\x00\x00\x00",
        ] {
            assert!(load_parameters(&mut network(2), garbage).is_err());
        }
    }
}
