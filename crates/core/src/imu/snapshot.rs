//! Snapshot (de)serialization of [`ImuNoble`].
//!
//! The payload carries all three modules (shared projection,
//! displacement network, location network — parameters *and* batch-norm
//! running statistics), the end-class quantizer, and the two scalars the
//! forward pass depends on (`max_segments`, `displacement_scale`), so a
//! hydrated tracker predicts bit-identically to the saved one.

use super::{ImuNoble, IMU_NOBLE_KIND};
use crate::snapshot::{
    bad, read_dense, read_mlp, read_quantizer, write_dense, write_mlp, write_quantizer,
    ModelSnapshot, SnapReader, SnapWriter,
};
use crate::{NobleError, SnapshotLocalizer};

/// Payload format version of [`ImuNoble`] snapshots.
const IMU_PAYLOAD_VERSION: u32 = 1;

impl SnapshotLocalizer for ImuNoble {
    fn snapshot(&self) -> ModelSnapshot {
        let mut w = SnapWriter::new();
        w.u32(IMU_PAYLOAD_VERSION);
        write_dense(&mut w, &self.projection);
        write_mlp(&mut w, &self.displacement);
        write_mlp(&mut w, &self.location);
        write_quantizer(&mut w, &self.quantizer);
        w.u64(self.max_segments as u64);
        w.f64(self.displacement_scale);
        ModelSnapshot::new(
            IMU_NOBLE_KIND,
            self.path_feature_dim(),
            self.class_count(),
            w.buf,
        )
    }
}

impl ImuNoble {
    /// Rebuilds a tracker from an [`IMU_NOBLE_KIND`] snapshot.
    ///
    /// # Errors
    ///
    /// [`NobleError::BadSnapshot`] on a wrong kind tag, payload version
    /// skew, corruption, or modules whose shapes disagree with each
    /// other.
    pub fn from_snapshot(snapshot: &ModelSnapshot) -> Result<Self, NobleError> {
        if snapshot.kind() != IMU_NOBLE_KIND {
            return Err(bad(format!(
                "expected an {IMU_NOBLE_KIND} snapshot, found '{}'",
                snapshot.kind()
            )));
        }
        let mut r = SnapReader::new(snapshot.payload());
        let version = r.u32()?;
        if version != IMU_PAYLOAD_VERSION {
            return Err(bad(format!(
                "unsupported {IMU_NOBLE_KIND} payload version {version}"
            )));
        }
        let projection = read_dense(&mut r)?;
        let displacement = read_mlp(&mut r)?;
        let location = read_mlp(&mut r)?;
        let quantizer = read_quantizer(&mut r)?;
        let max_segments = r.usize()?;
        let displacement_scale = r.f64()?;
        r.finish()?;

        if max_segments == 0 {
            return Err(bad("max_segments must be positive".to_string()));
        }
        if !(displacement_scale.is_finite() && displacement_scale > 0.0) {
            return Err(bad(format!(
                "displacement scale {displacement_scale} must be positive and finite"
            )));
        }
        // `max_segments` comes from the untrusted blob: multiply checked.
        if max_segments
            .checked_mul(projection.out_dim())
            .is_none_or(|width| displacement.in_dim() != width)
        {
            return Err(bad(format!(
                "displacement input width {} disagrees with {} segments x {} projected features",
                displacement.in_dim(),
                max_segments,
                projection.out_dim()
            )));
        }
        if location.in_dim() != 2 + quantizer.num_classes()
            || location.out_dim() != quantizer.num_classes()
        {
            return Err(bad(format!(
                "location module {}->{} disagrees with {} quantizer classes",
                location.in_dim(),
                location.out_dim(),
                quantizer.num_classes()
            )));
        }
        let model = ImuNoble {
            projection,
            displacement,
            location,
            quantizer,
            max_segments,
            displacement_scale,
        };
        if model.path_feature_dim() != snapshot.feature_dim()
            || model.class_count() != snapshot.class_count()
        {
            return Err(bad(
                "snapshot header metadata disagrees with payload".to_string()
            ));
        }
        Ok(model)
    }
}
