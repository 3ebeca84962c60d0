package radiotap

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func fullHeader() Header {
	return Header{
		TSFT: 123456789, HasTSFT: true,
		Flags: FlagFCS, HasFlags: true,
		Rate: 108, HasRate: true,
		ChannelFreq: Freq2GHz(6), ChannelFlags: ChanOFDM | Chan2GHz, HasChannel: true,
		AntSignal: -47, HasAntSignal: true,
		AntNoise: -95, HasAntNoise: true,
		Antenna: 1, HasAntenna: true,
		RxFlags: 0, HasRxFlags: true,
	}
}

func TestEncodeDecodeFull(t *testing.T) {
	t.Parallel()
	h := fullHeader()
	raw := h.Encode()
	got, n, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != len(raw) {
		t.Fatalf("Decode length = %d, want %d", n, len(raw))
	}
	if got != h {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestAlignmentTSFT(t *testing.T) {
	t.Parallel()
	// TSFT is 8-byte aligned and immediately follows the fixed 8-byte
	// preamble, so a TSFT-only header is exactly 16 bytes.
	h := Header{TSFT: 42, HasTSFT: true}
	raw := h.Encode()
	if len(raw) != 16 {
		t.Fatalf("TSFT-only header length = %d, want 16", len(raw))
	}
	if got := binary.LittleEndian.Uint64(raw[8:]); got != 42 {
		t.Fatalf("TSFT on wire = %d, want 42", got)
	}
}

func TestAlignmentChannelAfterFlagsRate(t *testing.T) {
	t.Parallel()
	// Flags(1)+Rate(1) end at offset 10; Channel needs 2-byte alignment,
	// so it sits at 10 with no padding: total 8+1+1+4 = 14.
	h := Header{Flags: 0, HasFlags: true, Rate: 22, HasRate: true,
		ChannelFreq: 2437, ChannelFlags: ChanCCK | Chan2GHz, HasChannel: true}
	raw := h.Encode()
	if len(raw) != 14 {
		t.Fatalf("header length = %d, want 14", len(raw))
	}
	got, _, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.ChannelFreq != 2437 || !got.HasChannel {
		t.Fatalf("channel mismatch: %+v", got)
	}
}

func TestAlignmentPadding(t *testing.T) {
	t.Parallel()
	// Flags(1) at 8, then RxFlags(2-aligned) must pad to 10.
	h := Header{Flags: FlagShortPreamble, HasFlags: true, RxFlags: 7, HasRxFlags: true}
	raw := h.Encode()
	if len(raw) != 12 {
		t.Fatalf("header length = %d, want 12 (1 pad byte)", len(raw))
	}
	got, _, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.RxFlags != 7 {
		t.Fatalf("RxFlags = %d, want 7", got.RxFlags)
	}
}

func TestDecodeErrors(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		raw  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short", make([]byte, 4), ErrTruncated},
		{"bad version", []byte{9, 0, 8, 0, 0, 0, 0, 0}, ErrBadVersion},
		{"len beyond buffer", []byte{0, 0, 200, 0, 0, 0, 0, 0}, ErrTruncated},
		{"len below minimum", []byte{0, 0, 4, 0, 0, 0, 0, 0}, ErrTruncated},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if _, _, err := Decode(tt.raw); !errors.Is(err, tt.want) {
				t.Fatalf("Decode error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestDecodeUnknownBit(t *testing.T) {
	t.Parallel()
	raw := make([]byte, 16)
	binary.LittleEndian.PutUint16(raw[2:4], 16)
	binary.LittleEndian.PutUint32(raw[4:8], 1<<20) // unknown field bit
	if _, _, err := Decode(raw); !errors.Is(err, ErrUnknownBits) {
		t.Fatalf("err = %v, want ErrUnknownBits", err)
	}
}

func TestDecodeChainedPresentRefused(t *testing.T) {
	t.Parallel()
	raw := make([]byte, 16)
	binary.LittleEndian.PutUint16(raw[2:4], 16)
	binary.LittleEndian.PutUint32(raw[4:8], 1<<bitExt)
	if _, _, err := Decode(raw); !errors.Is(err, ErrUnknownBits) || !strings.Contains(err.Error(), "2 present words") {
		t.Fatalf("err = %v, want ErrUnknownBits naming 2 present words", err)
	}

	// A third chained word is counted too.
	binary.LittleEndian.PutUint32(raw[8:12], 1<<bitExt)
	if _, _, err := Decode(raw); !errors.Is(err, ErrUnknownBits) || !strings.Contains(err.Error(), "3 present words") {
		t.Fatalf("err = %v, want ErrUnknownBits naming 3 present words", err)
	}

	// A chain that runs past the header length is truncated.
	binary.LittleEndian.PutUint32(raw[12:16], 1<<bitExt)
	if _, _, err := Decode(raw); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestDecodeSkipsUnrequestedFields(t *testing.T) {
	t.Parallel()
	// A header carrying a field we parse around (lock quality, bit 7) but
	// do not surface: ensure the fields around it still decode correctly.
	// Bit order on the wire: AntSignal (bit 5, offset 8), pad, lock
	// quality (bit 7, 2-aligned, offset 10), RxFlags (bit 14, offset 12).
	raw := make([]byte, 14)
	binary.LittleEndian.PutUint16(raw[2:4], 14)
	binary.LittleEndian.PutUint32(raw[4:8], 1<<bitAntSignal|1<<bitLockQuality|1<<bitRxFlags)
	raw[8] = byte(0xc4)                            // int8(-60)
	binary.LittleEndian.PutUint16(raw[10:12], 99)  // lock quality value
	binary.LittleEndian.PutUint16(raw[12:14], 321) // rx flags
	h, n, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if n != 14 {
		t.Fatalf("n = %d, want 14", n)
	}
	if !h.HasAntSignal || h.AntSignal != -60 {
		t.Fatalf("AntSignal = %d (has=%v), want -60", h.AntSignal, h.HasAntSignal)
	}
	if !h.HasRxFlags || h.RxFlags != 321 {
		t.Fatalf("RxFlags = %d (has=%v), want 321", h.RxFlags, h.HasRxFlags)
	}
}

func TestRateMbps(t *testing.T) {
	t.Parallel()
	var h Header
	h.SetRateMbps(5.5)
	if h.Rate != 11 {
		t.Errorf("5.5 Mbps -> rate units %d, want 11", h.Rate)
	}
	if got := h.RateMbps(); got != 5.5 {
		t.Errorf("RateMbps = %v, want 5.5", got)
	}
	h.SetRateMbps(54)
	if h.Rate != 108 || h.RateMbps() != 54 {
		t.Errorf("54 Mbps -> %d units, %v Mbps", h.Rate, h.RateMbps())
	}
}

func TestFreq2GHz(t *testing.T) {
	t.Parallel()
	tests := []struct {
		ch   int
		want uint16
	}{{1, 2412}, {6, 2437}, {11, 2462}, {13, 2472}, {14, 2484}}
	for _, tt := range tests {
		if got := Freq2GHz(tt.ch); got != tt.want {
			t.Errorf("Freq2GHz(%d) = %d, want %d", tt.ch, got, tt.want)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	t.Parallel()
	f := func(tsft uint64, flags, rate uint8, sig int8, hasNoise bool, noise int8) bool {
		h := Header{
			TSFT: tsft, HasTSFT: true,
			Flags: flags, HasFlags: true,
			Rate: rate, HasRate: true,
			AntSignal: sig, HasAntSignal: true,
			AntNoise: noise, HasAntNoise: hasNoise,
		}
		if !hasNoise {
			h.AntNoise = 0
		}
		got, n, err := Decode(h.Encode())
		return err == nil && n == len(h.Encode()) && got == h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeWithTrailingPayload(t *testing.T) {
	t.Parallel()
	h := fullHeader()
	raw := append(h.Encode(), []byte("80211-frame-bytes")...)
	got, n, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if string(raw[n:]) != "80211-frame-bytes" {
		t.Fatalf("payload after header corrupted")
	}
	if got.TSFT != h.TSFT {
		t.Fatalf("TSFT = %d, want %d", got.TSFT, h.TSFT)
	}
}
