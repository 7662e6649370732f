//! The benchmark's owned oracle: `SpOracle` semantics over an encrypted
//! table and trusted machine that the oracle owns, so a server can hold it
//! as a `'static` value. While tracing, every call into the trusted machine
//! made for a known request is timed: batches as spans, single-tuple
//! evaluations coalesced per enclosing span.

use crate::trace;
use prkb_edbms::{
    EncryptedPredicate, EncryptedTable, OracleError, PredicateKind, SelectionOracle, SpOracle,
    TrustedMachine, TupleId,
};
use std::sync::Arc;

#[derive(Clone)]
pub struct BenchOracle {
    table: Arc<EncryptedTable>,
    tm: Arc<TrustedMachine>,
}

impl BenchOracle {
    pub fn new(table: Arc<EncryptedTable>, tm: Arc<TrustedMachine>) -> Self {
        BenchOracle { table, tm }
    }

    fn sp(&self) -> SpOracle<'_> {
        SpOracle::new(&self.table, &self.tm)
    }

    /// Uploads one owner-encrypted row (the out-of-band owner→SP path) and
    /// returns its tuple id.
    ///
    /// # Panics
    /// If another oracle shares the table: uploads go to exactly one.
    pub fn push_row(&mut self, cells: &[Vec<u8>]) -> TupleId {
        let refs: Vec<&[u8]> = cells.iter().map(Vec::as_slice).collect();
        Arc::get_mut(&mut self.table)
            .expect("the uploading oracle owns its table alone")
            .push_encrypted_row(&refs)
            .expect("row encrypted by the owner for this schema")
    }

    /// The trusted machine's monotonic QPF counter.
    pub fn tm_uses(&self) -> u64 {
        self.tm.qpf_uses()
    }
}

impl SelectionOracle for BenchOracle {
    type Pred = EncryptedPredicate;

    fn try_eval(&self, pred: &EncryptedPredicate, t: TupleId) -> Result<bool, OracleError> {
        let _call = trace::coalesced("oracle.eval", 1);
        self.sp().try_eval(pred, t)
    }

    fn try_eval_batch(
        &self,
        pred: &EncryptedPredicate,
        tuples: &[TupleId],
        out: &mut Vec<bool>,
    ) -> Result<(), OracleError> {
        let _span = trace::request_span("oracle.batch", tuples.len() as u64);
        self.sp().try_eval_batch(pred, tuples, out)
    }

    fn kind_of(&self, pred: &EncryptedPredicate) -> PredicateKind {
        pred.kind()
    }

    fn n_slots(&self) -> usize {
        self.table.len()
    }

    fn is_live(&self, t: TupleId) -> bool {
        self.table.is_live(t)
    }

    fn qpf_uses(&self) -> u64 {
        self.tm.qpf_uses()
    }
}
