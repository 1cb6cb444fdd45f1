// dta_analyze fixture: condvar-under-mutex gone wrong. CreditPump models
// the shard router's dispatch — a waiter parks on a condvar while holding
// the dispatch mutex (correct on its own: Wait atomically releases and
// reacquires it) — but the two halves disagree on lock order around the
// wait. The waiter reaches into the credit ledger while still holding
// queue_mu_ (chain edge queue_mu_ -> credit_mu_, anchored at the call),
// and the notifier publishes under queue_mu_ taken inside credit_mu_
// (direct edge credit_mu_ -> queue_mu_, anchored at the inner
// acquisition). Either half alone is fine; together they can deadlock with
// the waiter wedged inside GrantCredit and the notifier wedged on
// queue_mu_, the notification never sent. Both edges are blessed in
// fixtures.manifest so only the lock-cycle rule fires here.
// fixture_condvar_clean.cc shows the same machinery used correctly.
// Never compiled; scanned by the DtaAnalyze fixture ctests.

class CreditPump {
 public:
  void Pump();
  void GrantCredit();
  void Refund();

 private:
  Mutex queue_mu_;
  Mutex credit_mu_;
  CondVar cv_;
  int queued_ GUARDED_BY(queue_mu_) = 0;
  int credits_ GUARDED_BY(credit_mu_) = 0;
};

// Waiter half: the condvar wait itself is the blessed pattern, but the
// credit grant happens with queue_mu_ still held.
void CreditPump::Pump() {
  MutexLock queue_lock(queue_mu_);
  while (queued_ == 0) cv_.Wait(queue_mu_);
  --queued_;
  GrantCredit();  // expect: lock-cycle
}

void CreditPump::GrantCredit() {
  MutexLock credit_lock(credit_mu_);
  ++credits_;
}

// Notifier half: inverted order — holds the credit ledger and takes the
// queue mutex inside it to publish and wake the waiter.
void CreditPump::Refund() {
  MutexLock credit_lock(credit_mu_);
  ++credits_;
  MutexLock queue_lock(queue_mu_);  // expect: lock-cycle
  ++queued_;
  cv_.NotifyAll();
}
