// Package wire is the query protocol shared by meshserved and
// meshclient. It declares the JSON request and answer types of the HTTP
// endpoints (json.go), the status table both planes answer with, and
// the binary protocol: length-prefixed little-endian frames over a
// persistent pipelined connection, carrying the same query operations
// as the JSON endpoints with none of the per-request HTTP and JSON
// overhead.
//
// # Framing
//
// Every message — request or response — is one frame:
//
//	u32  body length (bytes that follow; the prefix is not counted)
//	...  body
//
// Frames flow strictly in order: the server answers request frames in
// arrival order on the same connection, so a client may pipeline many
// requests before reading the first response and match responses to
// requests positionally (the echoed request ID double-checks the
// pairing).
//
// # Request body
//
//	u32  id       echoed verbatim in the response
//	u8   op       operation selector (Op* constants)
//	u8   flags    bit 0: omit paths; bit 1: MCC fault model (else blocks)
//	u8   len(mesh), then mesh name bytes
//	...  op-specific payload
//
// Coordinates are i32 X then i32 Y (two's complement, so out-of-mesh
// negatives round-trip exactly like JSON). Counts are u16. Op payloads:
//
//	OpRoute, OpHasMinimalPath, OpSafe, OpEnsure:
//	    coord src, coord dst
//	OpRouteBatch:
//	    u16 n, then n x (coord src, coord dst)
//	OpHasMinimalPathBatch, OpEnsureBatch:
//	    coord src, u16 n, then n x coord dst
//
// # Response body
//
//	u32  id
//	u8   status   (Status* constants)
//
// A non-OK status is followed by u16 message length and the message
// bytes, nothing else. StatusOK is followed by the op-specific result:
//
//	OpRoute:               u32 hops, u32 len(path), then path coords
//	                       (len is 0 when paths were omitted)
//	OpHasMinimalPath:      u8 boolean
//	OpSafe:                u8 boolean
//	OpEnsure:              u8 verdict, u8 len(via), then via coords
//	OpRouteBatch:          u16 n, then n results: u8 ok; ok=1 is
//	                       followed by u32 hops, u32 len(path), path
//	                       coords; ok=0 by u16 len(err), err bytes
//	OpHasMinimalPathBatch: u16 n, then ceil(n/8) bytes, answer i at
//	                       bit i&7 (LSB first) of byte i>>3
//	OpEnsureBatch:         u16 n, then n x (u8 verdict, u8 len(via),
//	                       via coords)
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"extmesh/internal/mesh"
)

// Operation selectors.
const (
	OpRoute               = 1
	OpHasMinimalPath      = 2
	OpSafe                = 3
	OpEnsure              = 4
	OpRouteBatch          = 5
	OpHasMinimalPathBatch = 6
	OpEnsureBatch         = 7
)

// Request flag bits.
const (
	// FlagOmitPaths elides path bodies from route responses (hop counts
	// are still reported), the binary twin of JSON "omit_path".
	FlagOmitPaths = 1 << 0
	// FlagMCC selects the MCC fault model; unset means faulty blocks.
	FlagMCC = 1 << 1
)

// Response statuses. HTTPStatus maps each to the HTTP status the JSON
// endpoints answer the same outcome with.
const (
	StatusOK            = 0 // 200
	StatusBadRequest    = 1 // 400
	StatusNotFound      = 2 // 404
	StatusUnprocessable = 3 // 422 (router reported no path)
	StatusInternal      = 4 // 500
	StatusSaturated     = 5 // 429 (admission shed; always safe to retry)
)

// Size limits. Request frames are small (the largest legitimate one is
// a full 4096-pair batch, under 64 KiB); response frames carry paths
// and get the same generous cap the HTTP client grants bodies.
const (
	MaxRequestFrame  = 1 << 20
	MaxResponseFrame = 32 << 20
	// MaxName bounds the mesh-name length (ValidName allows 64).
	MaxName = 64
)

// WriteFrame writes the length prefix and body. The caller batches
// writes with a bufio.Writer and decides when to flush.
func WriteFrame(w io.Writer, body []byte) error {
	var prefix [4]byte
	binary.LittleEndian.PutUint32(prefix[:], uint32(len(body)))
	if _, err := w.Write(prefix[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadFrame reads one frame body into buf (grown as needed) and
// returns it. A length prefix beyond max is a protocol error — the
// stream cannot be resynchronized after it, so the caller must close
// the connection.
func ReadFrame(r io.Reader, max int, buf []byte) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(prefix[:])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds the %d limit", n, max)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// --- append-style encoders -------------------------------------------

func AppendU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func AppendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func AppendCoord(b []byte, c mesh.Coord) []byte {
	b = AppendU32(b, uint32(int32(c.X)))
	return AppendU32(b, uint32(int32(c.Y)))
}

// --- cursor-style decoder --------------------------------------------

// errShort is the uniform truncated-body error; the decoder never
// reads past the frame, so a short frame is always the sender's fault.
var errShort = fmt.Errorf("wire: truncated frame body")

// Cursor walks a frame body. Methods return errShort-wrapped errors
// instead of panicking on truncated input, so untrusted bytes are safe
// to decode.
type Cursor struct {
	b   []byte
	off int
}

func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Remaining reports the unread byte count.
func (c *Cursor) Remaining() int { return len(c.b) - c.off }

func (c *Cursor) U8() (byte, error) {
	if c.Remaining() < 1 {
		return 0, errShort
	}
	v := c.b[c.off]
	c.off++
	return v, nil
}

func (c *Cursor) U16() (uint16, error) {
	if c.Remaining() < 2 {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v, nil
}

func (c *Cursor) U32() (uint32, error) {
	if c.Remaining() < 4 {
		return 0, errShort
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

func (c *Cursor) Coord() (mesh.Coord, error) {
	x, err := c.U32()
	if err != nil {
		return mesh.Coord{}, err
	}
	y, err := c.U32()
	if err != nil {
		return mesh.Coord{}, err
	}
	return mesh.Coord{X: int(int32(x)), Y: int(int32(y))}, nil
}

// Bytes returns the next n bytes, aliasing the frame buffer.
func (c *Cursor) Bytes(n int) ([]byte, error) {
	if n < 0 || c.Remaining() < n {
		return nil, errShort
	}
	v := c.b[c.off : c.off+n]
	c.off += n
	return v, nil
}

// --- requests ---------------------------------------------------------

// Request is one decoded query. Which coordinate fields are meaningful
// depends on Op: single ops use Src and Dst, OpRouteBatch uses Pairs,
// the fan ops use Src and Dests.
type Request struct {
	ID    uint32
	Op    uint8
	Flags uint8
	Mesh  string

	Src, Dst mesh.Coord
	Pairs    []mesh.Coord // src,dst interleaved: pair i at [2i], [2i+1]
	Dests    []mesh.Coord
}

// OmitPaths reports the path-eliding flag.
func (r *Request) OmitPaths() bool { return r.Flags&FlagOmitPaths != 0 }

// MCC reports the fault-model flag.
func (r *Request) MCC() bool { return r.Flags&FlagMCC != 0 }

// AppendRequest encodes r onto b (a frame body, without the prefix).
func AppendRequest(b []byte, r *Request) []byte {
	b = AppendU32(b, r.ID)
	b = append(b, r.Op, r.Flags, byte(len(r.Mesh)))
	b = append(b, r.Mesh...)
	switch r.Op {
	case OpRoute, OpHasMinimalPath, OpSafe, OpEnsure:
		b = AppendCoord(b, r.Src)
		b = AppendCoord(b, r.Dst)
	case OpRouteBatch:
		b = appendCoords(AppendU16(b, uint16(len(r.Pairs)/2)), r.Pairs)
	case OpHasMinimalPathBatch, OpEnsureBatch:
		b = AppendCoord(b, r.Src)
		b = appendCoords(AppendU16(b, uint16(len(r.Dests))), r.Dests)
	}
	return b
}

// DecodeRequest parses a request frame body. Counts are validated
// against the bytes actually present before any allocation, so a
// hostile length field cannot balloon memory. Trailing bytes after the
// payload are rejected, mirroring the JSON decoder's trailing-data
// check.
func DecodeRequest(body []byte) (*Request, error) {
	cur := NewCursor(body)
	var r Request
	var err error
	if r.ID, err = cur.U32(); err != nil {
		return nil, err
	}
	if r.Op, err = cur.U8(); err != nil {
		return &r, err
	}
	if r.Flags, err = cur.U8(); err != nil {
		return &r, err
	}
	nameLen, err := cur.U8()
	if err != nil {
		return &r, err
	}
	if int(nameLen) > MaxName {
		return &r, fmt.Errorf("wire: mesh name of %d bytes exceeds the %d limit", nameLen, MaxName)
	}
	name, err := cur.Bytes(int(nameLen))
	if err != nil {
		return &r, err
	}
	r.Mesh = string(name)
	switch r.Op {
	case OpRoute, OpHasMinimalPath, OpSafe, OpEnsure:
		if r.Src, err = cur.Coord(); err != nil {
			return &r, err
		}
		if r.Dst, err = cur.Coord(); err != nil {
			return &r, err
		}
	case OpRouteBatch:
		n, err := cur.U16()
		if err != nil {
			return &r, err
		}
		if r.Pairs, err = decodeCoords(cur, 2*int64(n)); err != nil {
			return &r, err
		}
	case OpHasMinimalPathBatch, OpEnsureBatch:
		if r.Src, err = cur.Coord(); err != nil {
			return &r, err
		}
		n, err := cur.U16()
		if err != nil {
			return &r, err
		}
		if r.Dests, err = decodeCoords(cur, int64(n)); err != nil {
			return &r, err
		}
	default:
		return &r, fmt.Errorf("wire: unknown op %d", r.Op)
	}
	if cur.Remaining() != 0 {
		return &r, fmt.Errorf("wire: %d trailing bytes after request payload", cur.Remaining())
	}
	return &r, nil
}

// --- responses --------------------------------------------------------

// RouteItem is one pair's outcome in an OpRouteBatch response.
type RouteItem struct {
	OK   bool
	Hops int
	Path []mesh.Coord
	Err  string
}

// EnsureResult is one verdict of an OpEnsure or OpEnsureBatch response.
type EnsureResult struct {
	Verdict uint8
	Via     []mesh.Coord
}

// Response is one decoded reply. Which result fields are meaningful
// depends on the op of the request it answers (responses do not carry
// the op; the client matches positionally).
type Response struct {
	ID     uint32
	Status uint8
	Err    string // non-OK only

	Bool    bool           // OpHasMinimalPath, OpSafe
	Hops    int            // OpRoute
	Path    []mesh.Coord   // OpRoute
	Ensure  EnsureResult   // OpEnsure
	Routes  []RouteItem    // OpRouteBatch
	Bits    []bool         // OpHasMinimalPathBatch
	Ensures []EnsureResult // OpEnsureBatch
}

// AppendError encodes a non-OK response.
func AppendError(b []byte, id uint32, status uint8, msg string) []byte {
	b = AppendU32(b, id)
	return AppendString(append(b, status), msg)
}

// AppendString encodes u16 length plus bytes, truncating s to 64 KiB.
func AppendString(b []byte, s string) []byte {
	if len(s) > 0xffff {
		s = s[:0xffff]
	}
	b = AppendU16(b, uint16(len(s)))
	return append(b, s...)
}

// AppendOKHeader starts an OK response; the caller appends the
// op-specific result after it.
func AppendOKHeader(b []byte, id uint32) []byte {
	b = AppendU32(b, id)
	return append(b, StatusOK)
}

// AppendPath encodes u32 length plus coordinates.
func AppendPath(b []byte, p []mesh.Coord) []byte {
	return appendCoords(AppendU32(b, uint32(len(p))), p)
}

func appendCoords(b []byte, cs []mesh.Coord) []byte {
	for _, c := range cs {
		b = AppendCoord(b, c)
	}
	return b
}

// AppendRoute encodes a route result: u32 hops (len(p)-1), then the
// path, or an empty path when omit is set.
func AppendRoute(b []byte, p []mesh.Coord, omit bool) []byte {
	b = AppendU32(b, uint32(int32(len(p)-1)))
	if omit {
		return AppendU32(b, 0)
	}
	return AppendPath(b, p)
}

// AppendBools packs vs LSB-first into ceil(n/8) bytes after a u16
// count — the OpHasMinimalPathBatch result body.
func AppendBools(b []byte, vs []bool) []byte {
	b = AppendU16(b, uint16(len(vs)))
	var acc byte
	for i, v := range vs {
		if v {
			acc |= 1 << (i & 7)
		}
		if i&7 == 7 {
			b = append(b, acc)
			acc = 0
		}
	}
	if len(vs)&7 != 0 {
		b = append(b, acc)
	}
	return b
}

// AppendEnsure encodes one verdict-plus-via result.
func AppendEnsure(b []byte, verdict uint8, via []mesh.Coord) []byte {
	return appendCoords(append(b, verdict, byte(len(via))), via)
}

// DecodeResponse parses a response frame body; op is the operation of
// the request this frame answers and selects the result layout.
func DecodeResponse(body []byte, op uint8) (*Response, error) {
	cur := NewCursor(body)
	var resp Response
	var err error
	if resp.ID, err = cur.U32(); err != nil {
		return nil, err
	}
	if resp.Status, err = cur.U8(); err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		if resp.Err, err = decodeString(cur); err != nil {
			return nil, err
		}
		return &resp, nil
	}
	switch op {
	case OpHasMinimalPath, OpSafe:
		v, err := cur.U8()
		if err != nil {
			return nil, err
		}
		resp.Bool = v != 0
	case OpRoute:
		if resp.Hops, resp.Path, err = decodeRoute(cur); err != nil {
			return nil, err
		}
	case OpEnsure:
		if resp.Ensure, err = decodeEnsure(cur); err != nil {
			return nil, err
		}
	case OpRouteBatch:
		n, err := cur.U16()
		if err != nil {
			return nil, err
		}
		resp.Routes = make([]RouteItem, int(n))
		for i := range resp.Routes {
			ok, err := cur.U8()
			if err != nil {
				return nil, err
			}
			r := RouteItem{OK: ok != 0, Hops: -1}
			if r.OK {
				r.Hops, r.Path, err = decodeRoute(cur)
			} else {
				r.Err, err = decodeString(cur)
			}
			if err != nil {
				return nil, err
			}
			resp.Routes[i] = r
		}
	case OpHasMinimalPathBatch:
		n, err := cur.U16()
		if err != nil {
			return nil, err
		}
		packed, err := cur.Bytes((int(n) + 7) / 8)
		if err != nil {
			return nil, err
		}
		resp.Bits = make([]bool, int(n))
		for i := range resp.Bits {
			resp.Bits[i] = packed[i>>3]&(1<<(i&7)) != 0
		}
	case OpEnsureBatch:
		n, err := cur.U16()
		if err != nil {
			return nil, err
		}
		resp.Ensures = make([]EnsureResult, int(n))
		for i := range resp.Ensures {
			if resp.Ensures[i], err = decodeEnsure(cur); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("wire: unknown op %d decoding response", op)
	}
	if cur.Remaining() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes after response payload", cur.Remaining())
	}
	return &resp, nil
}

// decodeRoute decodes u32 hops then a path.
func decodeRoute(cur *Cursor) (int, []mesh.Coord, error) {
	hops, err := cur.U32()
	if err != nil {
		return 0, nil, err
	}
	p, err := decodePath(cur)
	return int(int32(hops)), p, err
}

func decodeString(cur *Cursor) (string, error) {
	n, err := cur.U16()
	if err != nil {
		return "", err
	}
	b, err := cur.Bytes(int(n))
	return string(b), err
}

// decodeCoords reads n coordinates. The count is checked against the
// bytes actually present before anything is allocated, so a hostile
// count cannot balloon memory; zero coordinates decode to nil.
func decodeCoords(cur *Cursor, n int64) ([]mesh.Coord, error) {
	if n*8 > int64(cur.Remaining()) {
		return nil, errShort
	}
	if n == 0 {
		return nil, nil
	}
	cs := make([]mesh.Coord, n)
	for i := range cs {
		cs[i], _ = cur.Coord() // cannot run short: checked above
	}
	return cs, nil
}

func decodePath(cur *Cursor) ([]mesh.Coord, error) {
	n, err := cur.U32()
	if err != nil {
		return nil, err
	}
	return decodeCoords(cur, int64(n))
}

func decodeEnsure(cur *Cursor) (EnsureResult, error) {
	var e EnsureResult
	var err error
	if e.Verdict, err = cur.U8(); err != nil {
		return e, err
	}
	n, err := cur.U8()
	if err != nil {
		return e, err
	}
	e.Via, err = decodeCoords(cur, int64(n))
	return e, err
}
