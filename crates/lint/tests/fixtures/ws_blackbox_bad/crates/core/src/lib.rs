//! Seeded violation: a gateway writes document bytes into its flight
//! recorder. Recorder frames are durable and leave the token inside
//! crash digests, so `BlackBox::absorb` and `BlackBox::record` are
//! egress sinks. The calls have the gateway's own shape — a method on
//! a `blackbox: BlackBox` field of `self` — and `pds-lint` must flag
//! both.

pub struct DocStore {
    rows: Vec<Vec<u8>>,
}

impl DocStore {
    pub fn get(&self, doc: u32) -> Vec<u8> {
        self.rows.get(doc as usize).cloned().unwrap_or_default()
    }
}

pub struct BlackBox {
    frames: Vec<u64>,
}

impl BlackBox {
    pub fn record(&mut self, frame: u64) {
        self.frames.push(frame);
    }

    pub fn absorb(&mut self, frames: Vec<u64>) -> u64 {
        let n = frames.len() as u64;
        self.frames.extend(frames);
        n
    }
}

pub struct Pds {
    store: DocStore,
    blackbox: BlackBox,
}

impl Pds {
    /// THE VIOLATION (batch): every document byte becomes a frame.
    pub fn note_document(&mut self, doc: u32) {
        let row = self.store.get(doc);
        let frames = row.iter().map(|&b| u64::from(b)).collect::<Vec<u64>>();
        let _ = self.blackbox.absorb(frames);
    }

    /// THE VIOLATION (single frame): a document byte as a frame arg.
    pub fn note_first_byte(&mut self, doc: u32) {
        let row = self.store.get(doc);
        self.blackbox.record(row.first().map_or(0, |&b| u64::from(b)));
    }
}
