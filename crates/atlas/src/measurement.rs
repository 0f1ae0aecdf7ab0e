//! Measurement types, mirroring the Atlas measurement API.

/// What kind of probe traffic a measurement sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MeasurementType {
    /// ICMP echo (the paper's primary method).
    Ping,
    /// TCP connect-time probing (§5's planned extension).
    TcpConnect,
}
