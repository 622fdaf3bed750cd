// Package trackerdb compiles the tracker IP inventory of §3.3: the IPs
// observed serving tracking flows in the user dataset, augmented with the
// additional addresses passive DNS reveals for the same tracking domains,
// each carrying its (domain, IP) validity window. It also performs the
// IP-sharing analysis (how many registrable domains one IP serves) that
// confirms most tracking IPs are dedicated — and surfaces the small
// population of ad-exchange / cookie-sync IPs serving ten or more domains
// (Figs 4 and 5).
package trackerdb

import (
	"sort"
	"time"

	"crossborder/internal/classify"
	"crossborder/internal/netsim"
	"crossborder/internal/pdns"
	"crossborder/internal/webgraph"
)

// IPInfo aggregates what the inventory knows about one tracker IP.
type IPInfo struct {
	IP netsim.IP
	// Requests is the number of tracking requests the user dataset saw
	// this IP serve (0 for pDNS-only addresses).
	Requests int64
	// Observed marks IPs seen directly in the user dataset; the rest
	// were recovered from passive DNS (the paper's +2.78%).
	Observed bool
	// TLDs is the sorted set of registrable domains the IP serves.
	TLDs []string
	// FQDNs is the sorted set of hostnames the IP serves.
	FQDNs []string
}

// Dedicated reports whether the IP serves a single registrable domain
// (§3.3: ~85% of requests are served by such dedicated IPs).
func (i IPInfo) Dedicated() bool { return len(i.TLDs) == 1 }

// Window is a (FQDN, IP) activity window from passive DNS.
type Window struct {
	From, To time.Time
}

// Covers reports whether t falls inside the window.
func (w Window) Covers(t time.Time) bool {
	return !t.Before(w.From) && !t.After(w.To)
}

// Inventory is the compiled tracker IP database.
type Inventory struct {
	// ips maps every known tracker IP to its aggregate info.
	ips map[netsim.IP]*IPInfo
	// windows maps (fqdn, ip) to the pDNS validity window.
	windows map[windowKey]Window
	// trackingFQDNs is the set of hostnames classified as tracking.
	trackingFQDNs map[string]struct{}
}

type windowKey struct {
	fqdn string
	ip   netsim.IP
}

// Compile builds the inventory from the classified dataset and the
// passive DNS database.
func Compile(ds *classify.Dataset, db *pdns.DB) *Inventory {
	inv := &Inventory{
		ips:           make(map[netsim.IP]*IPInfo),
		windows:       make(map[windowKey]Window),
		trackingFQDNs: make(map[string]struct{}),
	}

	// Pass 1: tracking FQDNs and directly observed IPs with request
	// counts — a projected scan needing only the class, FQDN and IP
	// columns.
	observe := func(ip netsim.IP, n int64) {
		info := inv.ips[ip]
		if info == nil {
			info = &IPInfo{IP: ip}
			inv.ips[ip] = info
		}
		info.Requests += n
		info.Observed = true
	}
	// Only FQDN and IP leave the block, chunks with no tracking rows
	// load nothing, and when both columns are dictionary coded the row
	// loop touches small per-dict-id scratch — one interned-string
	// lookup per distinct hostname and one map operation per distinct
	// IP, instead of one per row.
	var fseen []bool
	var icnt []int64
	ds.ScanCols(func(_ int, pc *classify.ProjChunk) {
		cls := pc.Class
		if !classify.AnyTracking(cls) {
			return
		}
		fdict, fidx, fok := pc.DictView(classify.ColFQDN)
		idict, iidx, iok := pc.DictView(classify.ColIP)
		if fok && iok {
			if cap(fseen) < len(fdict) {
				fseen = make([]bool, len(fdict))
			}
			fseen = fseen[:len(fdict)]
			for i := range fseen {
				fseen[i] = false
			}
			if cap(icnt) < len(idict) {
				icnt = make([]int64, len(idict))
			}
			icnt = icnt[:len(idict)]
			for i := range icnt {
				icnt[i] = 0
			}
			for i, c := range cls {
				if !c.IsTracking() {
					continue
				}
				fseen[fidx[i]] = true
				icnt[iidx[i]]++
			}
			for k, seen := range fseen {
				if seen {
					inv.trackingFQDNs[ds.FQDNs.Str(uint32(fdict[k]))] = struct{}{}
				}
			}
			for k, n := range icnt {
				if n != 0 {
					observe(netsim.IP(idict[k]), n)
				}
			}
			return
		}
		fqdns := pc.Wide(classify.ColFQDN)
		ips := pc.Wide(classify.ColIP)
		for i, c := range cls {
			if !c.IsTracking() {
				continue
			}
			inv.trackingFQDNs[ds.FQDNs.Str(uint32(fqdns[i]))] = struct{}{}
			observe(netsim.IP(ips[i]), 1)
		}
	})

	// Pass 2: passive DNS completion. Every forward record of a tracking
	// FQDN contributes its IP (possibly new) and its validity window.
	fqdnSets := make(map[netsim.IP]map[string]struct{})
	for fqdn := range inv.trackingFQDNs {
		for _, rec := range db.Forward(fqdn) {
			info := inv.ips[rec.IP]
			if info == nil {
				info = &IPInfo{IP: rec.IP}
				inv.ips[rec.IP] = info
			}
			k := windowKey{fqdn, rec.IP}
			if w, ok := inv.windows[k]; ok {
				if rec.FirstSeen.Before(w.From) {
					w.From = rec.FirstSeen
				}
				if rec.LastSeen.After(w.To) {
					w.To = rec.LastSeen
				}
				inv.windows[k] = w
			} else {
				inv.windows[k] = Window{From: rec.FirstSeen, To: rec.LastSeen}
			}
			set := fqdnSets[rec.IP]
			if set == nil {
				set = make(map[string]struct{})
				fqdnSets[rec.IP] = set
			}
			set[fqdn] = struct{}{}
		}
	}

	// Pass 3: reverse completion — other tracking domains an IP serves
	// (the shared cookie-sync infrastructure shows up here), then
	// finalize the sorted TLD/FQDN sets.
	for ip, info := range inv.ips {
		set := fqdnSets[ip]
		if set == nil {
			set = make(map[string]struct{})
			fqdnSets[ip] = set
		}
		for _, rec := range db.Reverse(ip) {
			if _, isTracking := inv.trackingFQDNs[rec.FQDN]; isTracking {
				set[rec.FQDN] = struct{}{}
			}
		}
		tlds := make(map[string]struct{})
		for f := range set {
			info.FQDNs = append(info.FQDNs, f)
			tlds[webgraph.ETLDPlusOne(f)] = struct{}{}
		}
		for tld := range tlds {
			info.TLDs = append(info.TLDs, tld)
		}
		sort.Strings(info.FQDNs)
		sort.Strings(info.TLDs)
	}
	return inv
}

// NumIPs returns the total number of known tracker IPs.
func (inv *Inventory) NumIPs() int { return len(inv.ips) }

// NumObserved returns the count of IPs seen directly in the user dataset.
func (inv *Inventory) NumObserved() int {
	n := 0
	for _, info := range inv.ips {
		if info.Observed {
			n++
		}
	}
	return n
}

// NumExtra returns the count of pDNS-only IPs (the paper's 806 ≈ +2.78%).
func (inv *Inventory) NumExtra() int { return inv.NumIPs() - inv.NumObserved() }

// Info returns the aggregate info for an IP.
func (inv *Inventory) Info(ip netsim.IP) (IPInfo, bool) {
	info, ok := inv.ips[ip]
	if !ok {
		return IPInfo{}, false
	}
	return *info, true
}

// IPs returns all tracker IPs in ascending order.
func (inv *Inventory) IPs() []netsim.IP {
	out := make([]netsim.IP, 0, len(inv.ips))
	for ip := range inv.ips {
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsTrackingFQDN reports whether the hostname was classified as tracking.
func (inv *Inventory) IsTrackingFQDN(fqdn string) bool {
	_, ok := inv.trackingFQDNs[fqdn]
	return ok
}

// NumTrackingFQDNs returns the number of tracking hostnames.
func (inv *Inventory) NumTrackingFQDNs() int { return len(inv.trackingFQDNs) }

// IsTrackingIP reports whether ip belongs to the inventory, and — when a
// non-zero time is given — whether any of its (fqdn, ip) windows covers t.
// This is the predicate the NetFlow scanner uses (§7.2): flows are matched
// against the tracker IP list for the period the binding is valid.
func (inv *Inventory) IsTrackingIP(ip netsim.IP, t time.Time) bool {
	info, ok := inv.ips[ip]
	if !ok {
		return false
	}
	if t.IsZero() {
		return true
	}
	for _, fqdn := range info.FQDNs {
		if w, ok := inv.windows[windowKey{fqdn, ip}]; ok && w.Covers(t) {
			return true
		}
	}
	// Observed IPs without pDNS windows count as valid for the whole
	// study period.
	return len(info.FQDNs) == 0 && info.Observed
}

// WindowOf returns the validity window for a (fqdn, ip) pair.
func (inv *Inventory) WindowOf(fqdn string, ip netsim.IP) (Window, bool) {
	w, ok := inv.windows[windowKey{fqdn, ip}]
	return w, ok
}

// SharingStats is the Fig 4 aggregate: the distribution of registrable
// domains per IP, by IP count and by request volume.
type SharingStats struct {
	// IPsByTLDCount[k] = number of IPs serving exactly k TLDs.
	IPsByTLDCount map[int]int
	// RequestsByTLDCount[k] = tracking requests served by such IPs.
	RequestsByTLDCount map[int]int64
	TotalIPs           int
	TotalRequests      int64
}

// SingleTLDRequestShare returns the fraction of requests served by
// dedicated (single-TLD) IPs — the paper reports ~85%.
func (s SharingStats) SingleTLDRequestShare() float64 {
	if s.TotalRequests == 0 {
		return 0
	}
	return float64(s.RequestsByTLDCount[1]) / float64(s.TotalRequests)
}

// MultiDomainIPShare returns the fraction of IPs serving more than one
// TLD — the paper reports <2%.
func (s SharingStats) MultiDomainIPShare() float64 {
	if s.TotalIPs == 0 {
		return 0
	}
	multi := 0
	for k, n := range s.IPsByTLDCount {
		if k > 1 {
			multi += n
		}
	}
	return float64(multi) / float64(s.TotalIPs)
}

// Sharing computes the Fig 4 distribution.
func (inv *Inventory) Sharing() SharingStats {
	s := SharingStats{
		IPsByTLDCount:      make(map[int]int),
		RequestsByTLDCount: make(map[int]int64),
	}
	for _, info := range inv.ips {
		k := len(info.TLDs)
		if k == 0 {
			k = 1 // observed-only IP: the one domain it was seen serving
		}
		s.IPsByTLDCount[k]++
		s.RequestsByTLDCount[k] += info.Requests
		s.TotalIPs++
		s.TotalRequests += info.Requests
	}
	return s
}

// SharedIPs returns IPs serving at least minDomains registrable domains,
// sorted by descending domain count (Fig 5's population; paper: 114 IPs
// at the >=10 threshold).
func (inv *Inventory) SharedIPs(minDomains int) []IPInfo {
	var out []IPInfo
	for _, info := range inv.ips {
		if len(info.TLDs) >= minDomains {
			out = append(out, *info)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].TLDs) != len(out[j].TLDs) {
			return len(out[i].TLDs) > len(out[j].TLDs)
		}
		return out[i].IP < out[j].IP
	})
	return out
}
