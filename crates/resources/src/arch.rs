//! The destination-system architectures of the 1999 deployment.
//!
//! "The systems covered are Cray T3E, Fujitsu VPP/700, IBM SP-2, and NEC
//! SX-4" (§5.7). Each architecture has its own batch-directive dialect and
//! nomenclature, which is exactly what the NJS translation tables hide.

use unicore_codec::{CodecError, DerCodec, DerReader, DerWriter};

/// A destination system architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Cray T3E (MPP, NQE/NQS batch dialect).
    CrayT3e,
    /// Fujitsu VPP/700 (vector-parallel, NQS dialect).
    FujitsuVpp700,
    /// IBM SP-2 (cluster, LoadLeveler dialect).
    IbmSp2,
    /// NEC SX-4 (vector, NQS dialect).
    NecSx4,
    /// A generic workstation-class system (Codine-style dialect).
    Generic,
}

impl Architecture {
    /// All architectures of the paper's deployment plus the generic one.
    pub const ALL: [Architecture; 5] = [
        Architecture::CrayT3e,
        Architecture::FujitsuVpp700,
        Architecture::IbmSp2,
        Architecture::NecSx4,
        Architecture::Generic,
    ];

    /// Vendor marketing name.
    pub fn display_name(&self) -> &'static str {
        match self {
            Architecture::CrayT3e => "Cray T3E",
            Architecture::FujitsuVpp700 => "Fujitsu VPP/700",
            Architecture::IbmSp2 => "IBM SP-2",
            Architecture::NecSx4 => "NEC SX-4",
            Architecture::Generic => "Generic",
        }
    }

    /// The native batch system whose dialect the NJS must emit.
    pub fn batch_system(&self) -> &'static str {
        match self {
            Architecture::CrayT3e => "NQE",
            Architecture::FujitsuVpp700 => "NQS",
            Architecture::IbmSp2 => "LoadLeveler",
            Architecture::NecSx4 => "NQS",
            Architecture::Generic => "Codine",
        }
    }

    /// The native Fortran 90 compiler command.
    pub fn f90_compiler(&self) -> &'static str {
        match self {
            Architecture::CrayT3e => "f90",
            Architecture::FujitsuVpp700 => "frt",
            Architecture::IbmSp2 => "xlf90",
            Architecture::NecSx4 => "f90sx",
            Architecture::Generic => "f90",
        }
    }

    fn to_enum(self) -> u32 {
        match self {
            Architecture::CrayT3e => 0,
            Architecture::FujitsuVpp700 => 1,
            Architecture::IbmSp2 => 2,
            Architecture::NecSx4 => 3,
            Architecture::Generic => 4,
        }
    }

    fn from_enum(v: u32) -> Result<Self, CodecError> {
        Ok(match v {
            0 => Architecture::CrayT3e,
            1 => Architecture::FujitsuVpp700,
            2 => Architecture::IbmSp2,
            3 => Architecture::NecSx4,
            4 => Architecture::Generic,
            _ => return Err(CodecError::BadValue("Architecture")),
        })
    }
}

impl DerCodec for Architecture {
    fn write_der(&self, w: &mut DerWriter) {
        w.enumerated(self.to_enum());
    }

    fn read_der(r: &mut DerReader<'_>) -> Result<Self, CodecError> {
        Architecture::from_enum(r.next_enum()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            Architecture::ALL.iter().map(|a| a.display_name()).collect();
        assert_eq!(names.len(), Architecture::ALL.len());
    }

    #[test]
    fn round_trip_all() {
        for a in Architecture::ALL {
            assert_eq!(Architecture::from_der(&a.to_der()).unwrap(), a);
        }
    }

    #[test]
    fn dialect_mapping() {
        assert_eq!(Architecture::CrayT3e.batch_system(), "NQE");
        assert_eq!(Architecture::IbmSp2.batch_system(), "LoadLeveler");
        assert_eq!(Architecture::IbmSp2.f90_compiler(), "xlf90");
        assert_eq!(Architecture::NecSx4.f90_compiler(), "f90sx");
    }
}
