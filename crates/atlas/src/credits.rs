//! Credit accounting.
//!
//! RIPE Atlas meters measurements in credits (a ping costs its packet
//! count). The paper's acknowledgements thank the Atlas team for
//! "supporting our measurements with increased quota limits" — so the
//! ledger supports exactly that: a base quota plus boosts.

/// Why a debit was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreditError {
    /// The ledger does not hold enough credits.
    InsufficientCredits {
        /// Credits available at the time of the attempt.
        available: u64,
        /// Credits the operation needed.
        needed: u64,
    },
}

impl std::fmt::Display for CreditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CreditError::InsufficientCredits { available, needed } => {
                write!(f, "insufficient credits: have {available}, need {needed}")
            }
        }
    }
}

impl std::error::Error for CreditError {}

/// A measurement owner's credit balance.
#[derive(Debug, Clone)]
pub struct CreditLedger {
    balance: u64,
    spent: u64,
    /// Credits returned for failed measurements (Atlas refunds one-offs
    /// that never respond). Absent in pre-recovery serialized ledgers.
    refunded: u64,
}

impl CreditLedger {
    /// Opens a ledger with an initial grant.
    pub fn new(initial: u64) -> Self {
        Self {
            balance: initial,
            spent: 0,
            refunded: 0,
        }
    }

    /// Rebuilds a ledger from journaled counters (crash recovery).
    /// Replay never re-executes a journaled round, so no journaled refund
    /// can be paid twice.
    pub fn restore(balance: u64, spent: u64, refunded: u64) -> Self {
        Self {
            balance,
            spent,
            refunded,
        }
    }

    /// Remaining credits.
    pub fn balance(&self) -> u64 {
        self.balance
    }

    /// Lifetime spend.
    pub fn spent(&self) -> u64 {
        self.spent
    }

    /// Grants additional credits (the "increased quota limits").
    pub fn boost(&mut self, amount: u64) {
        self.balance = self.balance.saturating_add(amount);
    }

    /// Cost of a ping round: one credit per packet (Atlas pricing for
    /// the default packet size).
    pub fn ping_cost(packets: u32) -> u64 {
        u64::from(packets)
    }

    /// Debits `amount`, failing without side effects if the balance is
    /// short.
    pub fn debit(&mut self, amount: u64) -> Result<(), CreditError> {
        if amount > self.balance {
            return Err(CreditError::InsufficientCredits {
                available: self.balance,
                needed: amount,
            });
        }
        self.balance -= amount;
        self.spent += amount;
        Ok(())
    }

    /// Returns up to `amount` previously spent credits to the balance
    /// (never more than the lifetime spend) and reports how much was
    /// actually refunded. Conserves `balance + spent`.
    pub fn refund(&mut self, amount: u64) -> u64 {
        let refunded = amount.min(self.spent);
        self.spent -= refunded;
        self.balance = self.balance.saturating_add(refunded);
        self.refunded = self.refunded.saturating_add(refunded);
        refunded
    }

    /// Lifetime refunds for failed measurements.
    pub fn refunded(&self) -> u64 {
        self.refunded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debit_and_balance() {
        let mut l = CreditLedger::new(10);
        assert!(l.debit(4).is_ok());
        assert_eq!(l.balance(), 6);
        assert_eq!(l.spent(), 4);
    }

    #[test]
    fn refuses_overdraft_without_side_effects() {
        let mut l = CreditLedger::new(3);
        let err = l.debit(5).unwrap_err();
        assert_eq!(
            err,
            CreditError::InsufficientCredits {
                available: 3,
                needed: 5
            }
        );
        assert_eq!(l.balance(), 3);
        assert_eq!(l.spent(), 0);
    }

    #[test]
    fn boost_extends_quota() {
        let mut l = CreditLedger::new(1);
        assert!(l.debit(2).is_err());
        l.boost(10);
        assert!(l.debit(2).is_ok());
        assert_eq!(l.balance(), 9);
    }

    #[test]
    fn ping_cost_per_packet() {
        assert_eq!(CreditLedger::ping_cost(3), 3);
        assert_eq!(CreditLedger::ping_cost(0), 0);
    }

    #[test]
    fn refund_restores_balance_and_conserves_totals() {
        let mut l = CreditLedger::new(10);
        l.debit(6).unwrap();
        assert_eq!(l.refund(4), 4);
        assert_eq!(l.balance(), 8);
        assert_eq!(l.spent(), 2);
        assert_eq!(l.refunded(), 4);
        assert_eq!(l.balance() + l.spent(), 10);
    }

    #[test]
    fn refund_is_capped_by_lifetime_spend() {
        let mut l = CreditLedger::new(10);
        l.debit(3).unwrap();
        assert_eq!(l.refund(100), 3, "cannot refund more than was spent");
        assert_eq!(l.balance(), 10);
        assert_eq!(l.spent(), 0);
        assert_eq!(l.refund(1), 0, "nothing left to refund");
    }

    #[test]
    fn restore_rebuilds_counters() {
        let l = CreditLedger::restore(8, 2, 4);
        assert_eq!(l.balance(), 8);
        assert_eq!(l.spent(), 2);
        assert_eq!(l.refunded(), 4);
    }

    #[test]
    fn error_displays() {
        let e = CreditError::InsufficientCredits {
            available: 1,
            needed: 2,
        };
        assert!(e.to_string().contains("insufficient"));
    }
}
