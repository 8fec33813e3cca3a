// Package journal is the durability layer of the serving plane: a
// CRC-framed append-only log of registry mutations plus atomic
// snapshot compaction, so a crashed daemon recovers its registered
// meshes and every fault that was acknowledged before the crash.
//
// The design follows the classic snapshot+WAL shape. A generation is
// one snapshot file (the full registry state, written atomically via
// rename) plus one write-ahead log of the mutations applied since that
// snapshot. Recovery loads the newest valid snapshot, replays its log
// up to the first corrupt frame (a torn tail from a crash mid-append
// is expected, not fatal), and truncates the garbage so appends resume
// on a clean prefix. Compaction writes a fresh snapshot, rotates to an
// empty log, and deletes the previous generation.
//
// Records journal *intent* (the attempted fail/recover lists, the
// uploaded blob), not outcomes: replaying a record re-executes the
// same deterministic mutation against the same state, so skip counts,
// partial applications, and version increments reproduce exactly.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"extmesh"
)

// Record operation kinds.
const (
	// OpPut registers or replaces a named mesh from a network blob.
	OpPut = "put"
	// OpDelete removes a named mesh.
	OpDelete = "delete"
	// OpApply applies a fail list then a recover list to a mesh
	// (DynamicNetwork.Apply order).
	OpApply = "apply"
	// OpEvents applies an ordered fail/recover event sequence one
	// event at a time. The server no longer writes it (it came from a
	// removed fault-schedule admin form); recovery still replays it,
	// so data directories that hold such records stay readable.
	OpEvents = "events"
	// OpEpoch bumps the cluster epoch (failover fencing). The record
	// mutates no mesh state; journaling it makes a promotion durable
	// across crash recovery and ships it to followers through the
	// ordinary replication stream.
	OpEpoch = "epoch"
)

// FaultEvent is one step of an OpEvents record.
type FaultEvent struct {
	Op   string        `json:"op"` // "fail" or "recover"
	Node extmesh.Coord `json:"node"`
}

// Record is one journaled registry mutation. Seq is assigned by the
// store on append and is strictly increasing within a data dir.
type Record struct {
	Seq     uint64          `json:"seq"`
	Op      string          `json:"op"`
	Name    string          `json:"name"`
	Blob    json.RawMessage `json:"blob,omitempty"`    // OpPut: network blob
	Version uint64          `json:"version,omitempty"` // OpPut: mesh version at save time
	Fail    []extmesh.Coord `json:"fail,omitempty"`    // OpApply
	Recover []extmesh.Coord `json:"recover,omitempty"` // OpApply
	Events  []FaultEvent    `json:"events,omitempty"`  // OpEvents
	Spec    string          `json:"spec,omitempty"`    // OpEvents: provenance (schedule spec)
	Epoch   uint64          `json:"epoch,omitempty"`   // OpEpoch: new cluster epoch
}

// Frame layout: a fixed 8-byte header — payload length then IEEE
// CRC32 of the payload, both little-endian uint32 — followed by the
// JSON-encoded record. The CRC covers only the payload; a corrupt
// length lands on a CRC mismatch or an out-of-range length, either of
// which ends replay at the last good frame.
const frameHeader = 8

// MaxFrameBytes bounds a single frame so a corrupt length field cannot
// make replay allocate absurd buffers. The largest legitimate payload
// is a put record carrying a network blob, bounded like the HTTP
// layer's request cap.
const MaxFrameBytes = 16 << 20

// encodeFrame appends the framed record to dst.
func encodeFrame(dst []byte, r Record) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return dst, fmt.Errorf("journal: encode record: %w", err)
	}
	if len(payload) > MaxFrameBytes {
		return dst, fmt.Errorf("journal: record of %d bytes exceeds frame cap %d", len(payload), MaxFrameBytes)
	}
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// ReadFrames decodes consecutive frames from data. It never fails on
// corrupt input: decoding stops at the first frame whose length is
// implausible, whose CRC does not match, or whose payload is not a
// valid record — the torn-tail cases a crash mid-append produces — and
// valid reports the byte length of the good prefix. Every returned
// record passed its CRC.
func ReadFrames(data []byte) (recs []Record, valid int) {
	off := 0
	for {
		if len(data)-off < frameHeader {
			return recs, off
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > MaxFrameBytes || len(data)-off-frameHeader < n {
			return recs, off
		}
		payload := data[off+frameHeader : off+frameHeader+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return recs, off
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			return recs, off
		}
		recs = append(recs, r)
		off += frameHeader + n
	}
}
