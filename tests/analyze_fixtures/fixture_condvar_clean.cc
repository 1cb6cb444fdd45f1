// dta_analyze fixture: condvar-under-mutex done right — the clean twin of
// fixture_condvar_cycle.cc, mirroring how the shard router's dispatch
// actually uses its condvar. One mutex owns the whole handshake: the waiter holds
// mu_ across the wait loop, the notifier flips state and notifies under
// the same mu_, and anything expensive happens on a snapshot taken inside
// a brace scope that ends the lock before the work starts. No second
// mutex is ever held around the wait or the notify, so this file
// contributes no lock-order edges and must produce zero findings — it
// pins that the analyzer does not false-positive on cv_.Wait(mu_) under a
// MutexLock scope. Never compiled; scanned by the DtaAnalyze fixture
// ctests.

class DrainGate {
 public:
  void Await();
  void Publish();
  void Drain();

 private:
  Mutex mu_;
  CondVar cv_;
  bool ready_ GUARDED_BY(mu_) = false;
  int pending_ GUARDED_BY(mu_) = 0;
};

// Waiter: holds mu_ across the wait — Wait atomically releases and
// reacquires it, so no other lock may sit outside this scope.
void DrainGate::Await() {
  MutexLock lock(mu_);
  while (!ready_) cv_.Wait(mu_);
  --pending_;
}

// Notifier: state change and notify under the same (and only) mutex.
void DrainGate::Publish() {
  MutexLock lock(mu_);
  ready_ = true;
  ++pending_;
  cv_.NotifyAll();
}

// Snapshot-then-act: the brace scope returns mu_ before the drained batch
// is acted on, so the "work" below runs lock-free.
void DrainGate::Drain() {
  int batch = 0;
  {
    MutexLock lock(mu_);
    batch = pending_;
    pending_ = 0;
  }
  while (batch > 0) --batch;
}
