package capture

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"dot11fp/internal/dot11"
	"dot11fp/internal/pcap"
)

func sampleTrace() *Trace {
	sta1 := dot11.LocalAddr(1)
	sta2 := dot11.LocalAddr(2)
	ap := dot11.LocalAddr(1000)
	return &Trace{
		Name:    "test",
		Base:    time.Date(2026, 6, 11, 9, 0, 0, 0, time.UTC),
		Channel: 6,
		Records: []Record{
			{T: 0, Sender: ap, Receiver: dot11.Broadcast, Class: dot11.ClassBeacon, Size: 120, RateMbps: 1, FCSOK: true, SignalDBm: -40},
			{T: 1500, Sender: sta1, Receiver: ap, Class: dot11.ClassData, Size: 1528, RateMbps: 54, FCSOK: true, SignalDBm: -55},
			{T: 1550, Sender: dot11.ZeroAddr, Receiver: sta1, Class: dot11.ClassACK, Size: 14, RateMbps: 24, FCSOK: true, SignalDBm: -40},
			{T: 2600, Sender: sta2, Receiver: ap, Class: dot11.ClassQoSData, Size: 230, RateMbps: 11, Retry: true, FCSOK: true, SignalDBm: -61},
			{T: 2700, Sender: sta1, Receiver: ap, Class: dot11.ClassNull, Size: 28, RateMbps: 54, FCSOK: true, SignalDBm: -54},
			{T: 3000, Sender: sta2, Receiver: dot11.Broadcast, Class: dot11.ClassProbeReq, Size: 68, RateMbps: 1, FCSOK: true, SignalDBm: -62},
			{T: 3400, Sender: sta1, Receiver: ap, Class: dot11.ClassRTS, Size: 20, RateMbps: 11, FCSOK: true, SignalDBm: -55},
			{T: 3450, Sender: dot11.ZeroAddr, Receiver: sta1, Class: dot11.ClassCTS, Size: 14, RateMbps: 11, FCSOK: true, SignalDBm: -41},
			{T: 9000, Sender: sta2, Receiver: ap, Class: dot11.ClassData, Size: 900, RateMbps: 5.5, FCSOK: false, SignalDBm: -70},
		},
	}
}

func TestPcapRoundTrip(t *testing.T) {
	t.Parallel()
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		t.Fatalf("WritePcap: %v", err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatalf("ReadPcap: %v", err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip records = %d, want %d", len(got.Records), len(tr.Records))
	}
	if got.Channel != 6 {
		t.Errorf("channel = %d, want 6", got.Channel)
	}
	for i := range tr.Records {
		want, have := tr.Records[i], got.Records[i]
		if have.T != want.T {
			t.Errorf("rec %d: T = %d, want %d", i, have.T, want.T)
		}
		if have.Sender != want.Sender {
			t.Errorf("rec %d: sender = %v, want %v", i, have.Sender, want.Sender)
		}
		if have.Class != want.Class {
			t.Errorf("rec %d: class = %v, want %v", i, have.Class, want.Class)
		}
		if have.Size != want.Size {
			t.Errorf("rec %d: size = %d, want %d", i, have.Size, want.Size)
		}
		if math.Abs(have.RateMbps-want.RateMbps) > 0.26 {
			t.Errorf("rec %d: rate = %v, want %v", i, have.RateMbps, want.RateMbps)
		}
		if have.Retry != want.Retry {
			t.Errorf("rec %d: retry = %v, want %v", i, have.Retry, want.Retry)
		}
		if have.FCSOK != want.FCSOK {
			t.Errorf("rec %d: fcsok = %v, want %v", i, have.FCSOK, want.FCSOK)
		}
		if have.SignalDBm != want.SignalDBm {
			t.Errorf("rec %d: signal = %d, want %d", i, have.SignalDBm, want.SignalDBm)
		}
	}
}

func TestSendersAndAttribution(t *testing.T) {
	t.Parallel()
	tr := sampleTrace()
	senders := tr.Senders()
	// ACK and CTS must not appear as senders.
	if _, ok := senders[dot11.ZeroAddr]; ok {
		t.Error("zero addr counted as sender")
	}
	if got := senders[dot11.LocalAddr(1)]; got != 3 {
		t.Errorf("sta1 frames = %d, want 3 (data, null, rts)", got)
	}
	if got := senders[dot11.LocalAddr(2)]; got != 3 {
		t.Errorf("sta2 frames = %d, want 3", got)
	}
}

func TestDuration(t *testing.T) {
	t.Parallel()
	tr := sampleTrace()
	if got := tr.Duration(); got != 9000*time.Microsecond {
		t.Errorf("Duration = %v, want 9ms", got)
	}
	empty := &Trace{}
	if got := empty.Duration(); got != 0 {
		t.Errorf("empty Duration = %v", got)
	}
}

func TestSlice(t *testing.T) {
	t.Parallel()
	tr := sampleTrace()
	s := tr.Slice(1500, 3000)
	if len(s.Records) != 4 {
		t.Fatalf("slice records = %d, want 4", len(s.Records))
	}
	if s.Records[0].T != 1500 || s.Records[len(s.Records)-1].T != 2700 {
		t.Errorf("slice bounds wrong: first=%d last=%d", s.Records[0].T, s.Records[len(s.Records)-1].T)
	}
	if got := tr.Slice(100000, 200000); len(got.Records) != 0 {
		t.Errorf("out-of-range slice not empty: %d", len(got.Records))
	}
	all := tr.Slice(0, 1<<62)
	if len(all.Records) != len(tr.Records) {
		t.Errorf("full slice = %d records, want %d", len(all.Records), len(tr.Records))
	}
}

func TestReadPcapWrongLinkType(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	w := pcap.NewWriter(&buf, pcap.LinkTypeIEEE80211)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPcap(&buf); !errors.Is(err, ErrLinkType) {
		t.Fatalf("err = %v, want ErrLinkType", err)
	}
}

func TestReadPcapSkipsGarbagePackets(t *testing.T) {
	t.Parallel()
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// Append a garbage packet that fails radiotap parsing.
	pw := pcap.NewWriter(&buf, pcap.LinkTypeRadiotap)
	_ = pw // separate writer would re-emit a header; instead splice manually below.

	full := buf.Bytes()
	var spliced bytes.Buffer
	spliced.Write(full)
	// record header: ts=0, incl=4, orig=4 + 4 junk bytes
	rec := []byte{0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef}
	spliced.Write(rec)

	got, err := ReadPcap(&spliced)
	if err != nil {
		t.Fatalf("ReadPcap: %v", err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("records = %d, want %d (garbage should be skipped)", len(got.Records), len(tr.Records))
	}
}

func TestEncryptedFlagPropagates(t *testing.T) {
	t.Parallel()
	tr := sampleTrace()
	tr.Encrypted = true
	for i := range tr.Records {
		if tr.Records[i].Class == dot11.ClassData || tr.Records[i].Class == dot11.ClassQoSData {
			tr.Records[i].Protected = true
		}
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Encrypted {
		t.Error("Encrypted flag not rediscovered from protected frames")
	}
}

func TestLargeFrameTruncation(t *testing.T) {
	t.Parallel()
	// A 1528-byte frame must be stored truncated but report full size.
	tr := &Trace{
		Base: time.Unix(0, 0), Channel: 1,
		Records: []Record{{
			T: 10, Sender: dot11.LocalAddr(1), Receiver: dot11.LocalAddr(2),
			Class: dot11.ClassData, Size: 1528, RateMbps: 54, FCSOK: true,
		}},
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 400 {
		t.Errorf("capture bytes = %d, want truncated (<400)", buf.Len())
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Records[0].Size != 1528 {
		t.Errorf("size = %d, want 1528", got.Records[0].Size)
	}
}

func TestSmallControlFrameSizes(t *testing.T) {
	t.Parallel()
	// ACK (14 B) is smaller than a data header; the synthesised frame
	// must still round-trip with the correct class and size.
	tr := &Trace{
		Base: time.Unix(0, 0), Channel: 6,
		Records: []Record{{
			T: 5, Receiver: dot11.LocalAddr(3), Class: dot11.ClassACK,
			Size: 14, RateMbps: 24, FCSOK: true,
		}},
	}
	var buf bytes.Buffer
	if err := WritePcap(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Records[0].Class != dot11.ClassACK || got.Records[0].Size != 14 {
		t.Errorf("record = %+v", got.Records[0])
	}
	if !got.Records[0].Sender.IsZero() {
		t.Errorf("ACK sender = %v, want zero", got.Records[0].Sender)
	}
}

func TestPrismPcapRoundTrip(t *testing.T) {
	t.Parallel()
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WritePcapLinkType(&buf, tr, pcap.LinkTypePrism); err != nil {
		t.Fatalf("WritePcapLinkType(prism): %v", err)
	}
	got, err := ReadPcap(&buf)
	if err != nil {
		t.Fatalf("ReadPcap: %v", err)
	}
	// The sample trace has one FCS-bad record, dropped on prism export.
	want := 0
	for _, r := range tr.Records {
		if r.FCSOK {
			want++
		}
	}
	if len(got.Records) != want {
		t.Fatalf("prism round trip records = %d, want %d", len(got.Records), want)
	}
	if got.Channel != tr.Channel {
		t.Errorf("channel = %d, want %d", got.Channel, tr.Channel)
	}
	for i, have := range got.Records {
		ref := tr.Records[i] // bad-FCS record is last in the sample
		if have.T != ref.T || have.Sender != ref.Sender || have.Class != ref.Class {
			t.Errorf("rec %d: %+v vs %+v", i, have, ref)
		}
		if math.Abs(have.RateMbps-ref.RateMbps) > 0.11 {
			t.Errorf("rec %d rate = %v, want %v", i, have.RateMbps, ref.RateMbps)
		}
		if have.SignalDBm != ref.SignalDBm {
			t.Errorf("rec %d signal = %d, want %d", i, have.SignalDBm, ref.SignalDBm)
		}
		if !have.FCSOK {
			t.Errorf("rec %d: prism import produced FCS-bad record", i)
		}
	}
}

func TestWritePcapLinkTypeRejectsUnknown(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := WritePcapLinkType(&buf, sampleTrace(), pcap.LinkTypeIEEE80211); !errors.Is(err, ErrLinkType) {
		t.Fatalf("err = %v, want ErrLinkType", err)
	}
}

// TestStreamReaderMatchesReadPcap pins the single-code-path invariant:
// iterating StreamReader.Next yields exactly the records, base time,
// channel and encrypted flag that ReadPcap materialises, for both link
// types.
func TestStreamReaderMatchesReadPcap(t *testing.T) {
	t.Parallel()
	tr := sampleTrace()
	tr.Records[3].Protected = true // exercise the encrypted flag
	for _, linkType := range []uint32{pcap.LinkTypeRadiotap, pcap.LinkTypePrism} {
		var buf bytes.Buffer
		if err := WritePcapLinkType(&buf, tr, linkType); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()

		want, err := ReadPcap(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		sr, err := NewStreamReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var got []Record
		for {
			rec, err := sr.Next()
			if err != nil {
				break
			}
			got = append(got, rec)
		}
		if len(got) != len(want.Records) {
			t.Fatalf("link %d: streamed %d records, batch %d", linkType, len(got), len(want.Records))
		}
		for i := range got {
			if !got[i].Equal(want.Records[i]) {
				t.Fatalf("link %d record %d:\n stream %+v\n batch  %+v", linkType, i, got[i], want.Records[i])
			}
		}
		if !sr.Base().Equal(want.Base) || sr.Channel() != want.Channel || sr.Encrypted() != want.Encrypted {
			t.Fatalf("link %d metadata: stream (%v, %d, %v) vs batch (%v, %d, %v)",
				linkType, sr.Base(), sr.Channel(), sr.Encrypted(), want.Base, want.Channel, want.Encrypted)
		}
	}
}

// TestStreamReaderWrongLinkType mirrors the batch reader's link-type
// rejection.
func TestStreamReaderWrongLinkType(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	pw := pcap.NewWriter(&buf, pcap.LinkTypeIEEE80211)
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamReader(&buf); !errors.Is(err, ErrLinkType) {
		t.Fatalf("error = %v, want ErrLinkType", err)
	}
}

// TestStreamReaderNextZeroAllocs pins the StreamReader doc's claim:
// once the packet buffer is warm, decoding a record of either link
// type allocates nothing, and a probe request costs exactly the one
// copy of its ProbeIEs that must outlive the recycled buffer.
func TestStreamReaderNextZeroAllocs(t *testing.T) {
	const runs = 200
	var plain []Record
	for _, rec := range sampleTrace().Records {
		if rec.Class != dot11.ClassProbeReq && rec.FCSOK {
			plain = append(plain, rec)
		}
	}
	probes := probeTrace().Records
	cases := []struct {
		name     string
		linkType uint32
		recs     []Record
		want     float64
	}{
		{"radiotap", pcap.LinkTypeRadiotap, plain, 0},
		{"avs", pcap.LinkTypePrism, plain, 0},
		{"radiotap-probe", pcap.LinkTypeRadiotap, probes, 1},
		{"avs-probe", pcap.LinkTypePrism, probes, 1},
	}
	for _, c := range cases {
		tr := sampleTrace()
		tr.Records = nil
		for i := 0; i < 2*runs; i++ {
			rec := c.recs[i%len(c.recs)]
			rec.T = int64(i) * 1000
			tr.Records = append(tr.Records, rec)
		}
		var buf bytes.Buffer
		if err := WritePcapLinkType(&buf, tr, c.linkType); err != nil {
			t.Fatal(err)
		}
		sr, err := NewStreamReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < runs/2; i++ { // warm the packet buffer
			if _, err := sr.Next(); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(runs/2, func() {
			if _, err := sr.Next(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != c.want {
			t.Errorf("%s: Next allocates %.2f per record, want %v", c.name, allocs, c.want)
		}
		if sr.Skipped() != 0 {
			t.Errorf("%s: %d records skipped", c.name, sr.Skipped())
		}
	}
}
